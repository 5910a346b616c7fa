package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"rocktm/internal/obs"
)

// Stats accumulates per-strand event counts for a run.
type Stats struct {
	Loads       uint64
	Stores      uint64
	CASes       uint64
	L1Misses    uint64
	L2Misses    uint64
	Mispredicts uint64
	TLBWalks    uint64
	PageFaults  uint64
	TxBegins    uint64
	TxCommits   uint64
	TxAborts    uint64
}

// Strand is one simulated hardware strand. All of its methods must be
// called from the goroutine that Machine.Run started for it; the baton
// discipline then guarantees mutual exclusion over all shared simulator
// state without locks. None may be called once its machine is recycled:
// the strand then belongs to another machine.
type Strand struct {
	m   *Machine
	id  int
	bit uint64

	clock int64

	// Coroutine plumbing, owned by Machine.Run. The strand keeps one
	// coroutine from its first Run until Recycle, or a failed Run, stops
	// it: box hands it each Run's body, resume re-enters it, and yield
	// suspends it and returns control to the driver loop — with
	// finished=false from yieldBaton, or true once the body has returned.
	box    *strandBox
	yield  func(finished bool) bool
	resume func() (finished, ok bool)

	// yieldLimit is the cached scheduling deadline, maintained by
	// Machine.grant whenever this strand receives the baton: once clock
	// exceeds it, the strand has run a full quantum ahead of the laggard
	// and must hand the baton over. While the strand runs nothing else can
	// touch the parked heap, so the hot-path check is one compare.
	yieldLimit int64
	// limit folds both per-advance deadlines — yieldLimit and the
	// MaxCycles guard — into one value, so the inlined advance fast path is
	// a single compare. advanceSlow sorts out which deadline actually fired
	// and recomputes the fold.
	limit int64

	rng rng
	l1  *l1Cache
	mmu mmu
	bp  *branchPredictor

	// frames is the machine memory's page→frame table. The table is never
	// reallocated, so this copy of its header stays valid, and an access
	// reaches its page's frame without going through the machine.
	frames []*frame

	// flt, when non-nil, injects deterministic faults into transactional
	// accesses (see FaultPlan). It is nil unless the machine config enables
	// a probabilistic fault, so fault-free runs pay one nil check per
	// transactional access and draw no extra randomness.
	flt *faultInjector

	tx txnState

	stats Stats

	// sinks receive every cycle-timestamped hook-point event (see
	// Machine.AttachEventSink). Sinks charge no cycles, consume no
	// simulated randomness and allocate nothing, so observed runs are
	// cycle-identical to unobserved ones.
	sinks []obs.EventSink
}

// strandPool holds the strands of recycled machines (Machine.Recycle).
// A pooled strand keeps only its hardware: its L1, TLBs, predictor and
// transaction slices. Every machine has the same strand shape, so each
// new strand draws one and resets its hardware instead of allocating
// ~28 KB of it.
var strandPool sync.Pool

// newStrand returns strand id of m, drawn from strandPool when it holds one
// and reset to the state a freshly allocated strand has.
func newStrand(m *Machine, id int) *Strand {
	s, _ := strandPool.Get().(*Strand)
	if s == nil {
		s = &Strand{l1: newL1(L1Sets, L1Ways), bp: newBranchPredictor()}
		s.mmu.init(microDTLB, mainDTLB, itlbEntries)
	} else {
		s.l1.reset()
		s.mmu.reset()
		s.bp.reset()
	}
	s.m = m
	s.id = id
	s.bit = 1 << uint(id)
	s.rng = newRNG(m.cfg.Seed*0x9e3779b9 + uint64(id)*0x85ebca77 + 1)
	s.frames = m.mem.frames
	s.flt = newFaultInjector(&m.cfg, id)
	return s
}

// recycle strips s down to its hardware, emptying the transaction slices,
// and hands it to strandPool. Its coroutine must already be stopped.
func (s *Strand) recycle() {
	t := &s.tx
	*s = Strand{
		l1:  s.l1,
		mmu: s.mmu,
		bp:  s.bp,
		tx: txnState{
			marked:     t.marked[:0],
			storeAddrs: t.storeAddrs[:0],
			storeVals:  t.storeVals[:0],
		},
	}
	strandPool.Put(s)
}

// ID returns the strand number, in [0, Strands).
func (s *Strand) ID() int { return s.id }

// Clock returns the strand's virtual time in cycles.
func (s *Strand) Clock() int64 { return s.clock }

// Stats returns a copy of the strand's event counters.
func (s *Strand) Stats() Stats { return s.stats }

// TraceEvent delivers one hook-point event (transaction begin, commit and
// abort from the simulator; lock acquire/release, TM phase transitions and
// software fallbacks from the TM systems) to every attached sink at the
// strand's current clock. It charges no cycles and perturbs no simulator
// state, so instrumented and uninstrumented code run cycle-identically.
func (s *Strand) TraceEvent(kind obs.EventKind, arg uint64) {
	for _, k := range s.sinks {
		k.SinkEvent(s.id, s.clock, kind, arg)
	}
}

// Rand returns 64 deterministic pseudo-random bits.
func (s *Strand) Rand() uint64 { return s.rng.Next() }

// RandIntn returns a deterministic uniform value in [0, n).
func (s *Strand) RandIntn(n int) int { return s.rng.Intn(n) }

// Advance charges n cycles of pure compute (no memory traffic).
func (s *Strand) Advance(n int64) { s.advance(n) }

// advance is the per-event hot path: it is small enough to inline into
// every memory-operation method, so the common case costs one add and one
// compare. Both per-advance checks (MaxCycles guard, yield) trigger only
// once clock passes a known deadline, so they fold into the single cached
// limit.
func (s *Strand) advance(n int64) {
	s.clock += n
	if s.clock > s.limit {
		s.advanceSlow()
	}
}

// advanceSlow handles a crossed deadline: the MaxCycles guard first, then
// the yield.
func (s *Strand) advanceSlow() {
	if max := s.m.cfg.MaxCycles; max > 0 && s.clock > max {
		panic(fmt.Sprintf("sim: strand %d exceeded MaxCycles=%d (virtual livelock?)", s.id, max))
	}
	if s.clock > s.yieldLimit {
		// The driver's grant() recomputes the folded limit when it resumes
		// us, so there is nothing left to refresh here.
		s.yieldBaton()
		return
	}
	s.recomputeLimit()
}

// recomputeLimit refreshes the folded advance deadline after yieldLimit
// changed.
func (s *Strand) recomputeLimit() {
	lim := s.yieldLimit
	if max := s.m.cfg.MaxCycles; max > 0 && max < lim {
		lim = max
	}
	s.limit = lim
}

// yieldBaton hands the baton back to Machine.Run's driver loop once we
// have run a full quantum ahead of the laggard; the driver parks this
// strand and resumes the laggard. The call returns when the driver next
// resumes us. yield reports false only when Run is unwinding after another
// strand's panic and has stopped this coroutine; the body is then abandoned.
func (s *Strand) yieldBaton() {
	if !s.yield(false) {
		panic(strandStopped{})
	}
}

// strandStopped unwinds the body of a strand whose coroutine Run stopped.
type strandStopped struct{}

// ---- Translation ----

// translateLoad services address translation for a load outside a
// transaction (page faults are taken and serviced by the simulated OS).
func (s *Strand) translateLoad(a Addr) {
	p := PageOf(a)
	pg := &s.m.mem.pages[p]
	// A micro-DTLB hit resolves everything; a main-DTLB hit refills the
	// micro level; otherwise walk (or fault) and fill both. The old code
	// re-probed the micro TLB after a hit at either level; a lookup that
	// just hit mutates nothing on re-probe and a lookup that just missed
	// still misses, so skipping the re-probe is state-identical.
	if s.mmu.micro.lookup(p, pg.gen) {
		return
	}
	if s.mmu.main.lookup(p, pg.gen) {
		s.mmu.micro.fill(p, pg.gen)
		return
	}
	if !pg.walkable {
		s.pageFault(p, false)
	} else {
		s.clock += costTLBWalk
		s.stats.TLBWalks++
	}
	s.mmu.main.fill(p, pg.gen)
	s.mmu.micro.fill(p, pg.gen)
}

// translateStore services translation for a store outside a transaction,
// including the write fault that first establishes write permission.
func (s *Strand) translateStore(a Addr) {
	p := PageOf(a)
	pg := &s.m.mem.pages[p]
	if !s.mmu.micro.lookup(p, pg.gen) {
		if !s.mmu.main.lookup(p, pg.gen) {
			if !pg.walkable {
				s.pageFault(p, true)
			} else {
				s.clock += costTLBWalk
				s.stats.TLBWalks++
			}
			s.mmu.main.fill(p, pg.gen)
		}
		s.mmu.micro.fill(p, pg.gen)
	}
	if !pg.writable {
		s.pageFault(p, true)
	}
}

// pageFault has the simulated OS service a fault on page p.
func (s *Strand) pageFault(p int32, write bool) {
	pg := &s.m.mem.pages[p]
	if !pg.mapped {
		panic(fmt.Sprintf("sim: strand %d faulted on unallocated page %d", s.id, p))
	}
	s.clock += costPageFault
	s.stats.PageFaults++
	pg.walkable = true
	if write {
		pg.writable = true
	}
}

// ---- Cache ----

// fill brings line into the strand's L1 (and the shared L2), charging the
// appropriate latency and maintaining the coherence directory. It reports
// whether the access hit in L1 and whether a transactionally marked line
// was displaced to make room. After fill the line is always resident (an
// L2 back-invalidation triggered by the fill can only target a different
// line), and its page's frame is backed.
func (s *Strand) fill(line int32) (l1Hit bool, evictedMarked bool) {
	// L1-hit fast path: touch inlines here, so the common case is a masked
	// index, a short tag scan, and one latency charge.
	if s.l1.touch(line) {
		s.clock += costL1Hit
		return true, false
	}
	return s.fillMiss(line)
}

// fillMiss services the L1 miss half of fill (the touch above already
// advanced the L1 LRU tick): pick a victim, consult the shared L2, and
// maintain the coherence directory.
func (s *Strand) fillMiss(line int32) (l1Hit bool, evictedMarked bool) {
	// Pick the victim before an L2 back-invalidation can free another slot.
	evicted, evMark := s.l1.fillVictim(line, s.frames, s.markBit())
	s.stats.L1Misses++
	if evicted != -1 {
		lm := s.dir(evicted)
		lm.present &^= s.bit
		if evMark {
			// A transactionally marked line was displaced. A sticky design
			// with budget left absorbs it — the directory marks survive in
			// the overflow set and the caller sees no eviction; otherwise
			// (always, under the default) the marks are dropped and the
			// caller aborts.
			evMark = !s.spillMarked(lm)
		}
		// An unmarked victim holds no mark of this strand, and written
		// lines are a subset of marked ones, so of its directory bits only
		// present changes.
	}
	l2hit, l2evicted := s.m.l2.access(line)
	if l2hit {
		s.clock += costL2Hit
	} else {
		s.clock += costMemAccess
		s.stats.L2Misses++
	}
	if l2evicted != -1 && l2evicted != line {
		s.backInvalidate(l2evicted)
	}
	s.m.mem.frame(line >> linePageShift).dir(line).present |= s.bit
	return false, evMark
}

// markBit is the bit by which the strand's marks appear in the directory
// while a transaction is active, and 0 outside one, when it holds none.
func (s *Strand) markBit() uint64 {
	if s.tx.active {
		return s.bit
	}
	return 0
}

// dir returns line's coherence-directory entry. Only a line that has been
// filled, and so has its frame backed, may be asked for: every caller holds
// a line that is resident, marked or in the store queue.
func (s *Strand) dir(line int32) *lineMeta {
	return s.frames[line>>linePageShift].dir(line)
}

// backInvalidate removes a line evicted from the inclusive L2 from every
// L1; transactions holding it marked abort with COH (Section 3's
// single-threaded "coherence" surprises).
func (s *Strand) backInvalidate(line int32) {
	lm := s.dir(line)
	// Folding marked into the scan mask is a no-op under the default design
	// (a marked line is always present — it cannot leave an L1 without
	// aborting its holder) but reaches sticky-set holders, whose marks
	// outlive their L1 copy; an L2 back-invalidation aborts them too, since
	// only L1 displacement is tolerated.
	if lm.present|lm.marked == 0 {
		return
	}
	// Iterate only the set bits (ascending strand ID, same order as the
	// old full scan) instead of all strands.
	for rest := lm.present | lm.marked; rest != 0; rest &= rest - 1 {
		t := s.m.strands[bits.TrailingZeros64(rest)]
		t.l1.invalidate(line)
		if lm.marked&t.bit != 0 {
			s.m.doomRemote(t, cohBit)
		}
	}
	lm.present = 0
	lm.marked = 0
	lm.written = 0
}

// storeInvalidate implements the exclusive-ownership request of a store:
// every other strand's copy of the line is invalidated, and — requester
// wins — every transaction holding it marked is doomed with COH. The
// caller passes the line's directory entry, which it invariably has in
// hand already, so the common no-sharers case is one mask test.
func (s *Strand) storeInvalidate(line int32, lm *lineMeta) {
	others := (lm.present | lm.marked) &^ s.bit
	if others == 0 {
		return
	}
	for rest := others; rest != 0; rest &= rest - 1 {
		t := s.m.strands[bits.TrailingZeros64(rest)]
		t.l1.invalidate(line)
		if lm.marked&t.bit != 0 {
			// doomRemote is exactly doom under the default design; under
			// eager version management it also unrolls the victim's undo
			// log before this access can observe memory.
			s.m.doomRemote(t, cohBit)
		}
	}
	lm.present &= s.bit
	lm.marked &= s.bit
	lm.written &= s.bit
}

// loadConflict dooms transactions holding line in their *write* set: their
// buffered store cannot coexist with our read (requester wins). Only a
// strand with an active transaction holds marks, so every writer visited
// is live. Under eager version management doomRemote also unrolls each
// writer's undo log before this load reads memory.
func (s *Strand) loadConflict(lm *lineMeta) {
	for rest := lm.written &^ s.bit; rest != 0; rest &= rest - 1 {
		s.m.doomRemote(s.m.strands[bits.TrailingZeros64(rest)], cohBit)
	}
}

// doom marks the strand's in-flight transaction (if any) as failed for the
// given CPS reason; the failure is delivered at its next transactional
// instruction or at commit.
func (s *Strand) doom(reason uint32) {
	if s.tx.active {
		s.tx.doomed |= reason
	}
}

// assertNoTxn guards against a modelling bug: ordinary (non-transactional)
// memory operations inside a hardware transaction would bypass the store
// queue and survive an abort.
func (s *Strand) assertNoTxn(op string) {
	if s.tx.active {
		panic("sim: " + op + " while a hardware transaction is active")
	}
}

// ---- Non-transactional memory operations ----

// Load performs an ordinary (non-transactional) load.
func (s *Strand) Load(a Addr) Word {
	s.assertNoTxn("Load")
	s.advance(costOp)
	s.stats.Loads++
	line := LineOf(a)
	s.translateLoad(a)
	s.fill(line)
	f := s.frames[PageOf(a)]
	s.loadConflict(f.dir(line))
	return *f.word(a)
}

// Store performs an ordinary (non-transactional) store. It invalidates all
// other cached copies and dooms any transaction that had the line marked.
func (s *Strand) Store(a Addr, w Word) {
	s.assertNoTxn("Store")
	s.advance(costOp)
	s.stats.Stores++
	*s.own(a) = w
}

// own is the exclusive-ownership request every non-transactional write
// makes: translate with write permission, fill the line and invalidate
// every other copy. It returns a's word.
func (s *Strand) own(a Addr) *Word {
	line := LineOf(a)
	s.translateStore(a)
	s.fill(line)
	f := s.frames[PageOf(a)]
	s.storeInvalidate(line, f.dir(line))
	return f.word(a)
}

// CAS performs an atomic compare-and-swap, returning the previous value and
// whether the swap happened. A CAS requests exclusive ownership whether or
// not it succeeds, so it dooms conflicting transactions either way — which
// is also why a "dummy CAS" (old == new == current value) is the idiom for
// warming the TLB and write permission without changing data (Section 3).
func (s *Strand) CAS(a Addr, old, new Word) (Word, bool) {
	s.assertNoTxn("CAS")
	s.advance(costOp + costCASExtra)
	s.stats.CASes++
	w := s.own(a)
	cur := *w
	if cur != old {
		return cur, false
	}
	*w = new
	return cur, true
}

// Add atomically adds delta to the word at a and returns the new value
// (a CAS loop in real code; modelled as one CAS-priced operation).
func (s *Strand) Add(a Addr, delta Word) Word {
	s.assertNoTxn("Add")
	s.advance(costOp + costCASExtra)
	s.stats.CASes++
	w := s.own(a)
	*w += delta
	return *w
}

// Branch models a conditional branch at the (arbitrary but stable) program
// counter pc with the given outcome, charging the mispredict penalty when
// the predictor is wrong.
func (s *Strand) Branch(pc uint32, taken bool) {
	s.advance(costOp)
	if s.bp.predict(pc, taken) {
		s.stats.Mispredicts++
		s.clock += costMispredict
	}
}

// Exec models fetching code from the page containing codePage, filling the
// ITLB on a miss (outside transactions the walk just costs time).
func (s *Strand) Exec(codePage int32) {
	s.advance(costOp)
	pg := &s.m.mem.pages[codePage]
	if !s.mmu.itlb.lookup(codePage, pg.gen) {
		s.clock += costTLBWalk
		s.stats.TLBWalks++
		s.mmu.itlb.fill(codePage, pg.gen)
	}
}

// FlushTLBs drops all of the strand's TLB state (simulating a context
// switch).
func (s *Strand) FlushTLBs() {
	s.mmu.micro.flush()
	s.mmu.main.flush()
	s.mmu.itlb.flush()
}
