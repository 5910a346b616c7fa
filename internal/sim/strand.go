package sim

import (
	"fmt"
	"math/bits"

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
// state without locks.
type Strand struct {
	m   *Machine
	id  int
	bit uint64

	clock  int64
	parked bool

	// Coroutine plumbing, owned by Machine.Run: yield suspends this
	// strand's body and returns control to the driver loop; resume
	// re-enters the body; cancel retires the coroutine once the body has
	// returned, or abandons it when Run unwinds from another strand's panic.
	yield  func(struct{}) bool
	resume func() (struct{}, bool)
	cancel func()

	// yieldLimit is the cached scheduling deadline, maintained by
	// Machine.grant whenever this strand receives the baton: once clock
	// exceeds it, the strand has run a full quantum ahead of the laggard
	// and must hand the baton over. While the strand runs nothing else can
	// touch the parked heap, so the hot-path check is one compare.
	yieldLimit int64
	// limit folds every per-advance deadline — yieldLimit, the next
	// interrupt delivery, and the MaxCycles guard — into one value, so the
	// inlined advance fast path is a single compare. advanceSlow sorts out
	// which deadline actually fired and recomputes the fold.
	limit int64

	rng rng
	l1  *l1Cache
	mmu mmu
	bp  *branchPredictor

	// flt, when non-nil, injects deterministic faults into transactional
	// accesses (see FaultPlan). It is nil unless the machine config enables
	// a probabilistic fault, so fault-free runs pay one nil check per
	// transactional access and draw no extra randomness.
	flt *faultInjector

	nextInterrupt int64

	tx txnState

	stats Stats

	// sinks receive every cycle-timestamped hook-point event (see
	// Machine.AttachEventSink). Sinks charge no cycles, consume no
	// simulated randomness and allocate nothing, so observed runs are
	// cycle-identical to unobserved ones.
	sinks []obs.EventSink
}

func newStrand(m *Machine, id int) *Strand {
	s := &Strand{
		m:   m,
		id:  id,
		bit: 1 << uint(id),
		rng: newRNG(m.cfg.Seed*0x9e3779b9 + uint64(id)*0x85ebca77 + 1),
		l1:  newL1(m.cfg.L1Sets, m.cfg.L1Ways),
		bp:  newBranchPredictor(),
	}
	s.mmu.init(m.cfg.MicroDTLB, m.cfg.MainDTLB, m.cfg.ITLB)
	s.mmu.reserve(m.mem.PageCount())
	s.flt = newFaultInjector(&m.cfg, id)
	s.tx.fwd = newU32Map()
	s.tx.lineSet = newU32Map()
	if m.cfg.InterruptEvery > 0 {
		s.nextInterrupt = m.cfg.InterruptEvery
	}
	return s
}

// ID returns the strand number, in [0, Strands).
func (s *Strand) ID() int { return s.id }

// Clock returns the strand's virtual time in cycles.
func (s *Strand) Clock() int64 { return s.clock }

// Machine returns the owning machine.
func (s *Strand) Machine() *Machine { return s.m }

// Mem returns the shared simulated memory.
func (s *Strand) Mem() *Memory { return s.m.mem }

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
// compare. The checks the old per-advance code did unconditionally
// (MaxCycles guard, interrupt delivery, yield) all trigger only once clock
// passes a known deadline, so they fold into the single cached limit.
func (s *Strand) advance(n int64) {
	s.clock += n
	if s.clock > s.limit {
		s.advanceSlow()
	}
}

// advanceSlow handles a crossed deadline, in the same order the checks ran
// when they were unconditional: MaxCycles guard, interrupt delivery, yield.
func (s *Strand) advanceSlow() {
	if max := s.m.cfg.MaxCycles; max > 0 && s.clock > max {
		panic(fmt.Sprintf("sim: strand %d exceeded MaxCycles=%d (virtual livelock?)", s.id, max))
	}
	if s.nextInterrupt > 0 && s.clock >= s.nextInterrupt {
		s.nextInterrupt = s.clock + s.m.cfg.InterruptEvery
		if s.tx.active {
			s.tx.doomed |= asyncBit
		}
	}
	if s.clock > s.yieldLimit {
		// The driver's grant() recomputes the folded limit (after any
		// nextInterrupt update above) when it resumes us, so there is
		// nothing left to refresh here.
		s.yieldBaton()
		return
	}
	s.recomputeLimit()
}

// recomputeLimit refreshes the folded advance deadline after any of its
// inputs (yieldLimit, nextInterrupt) changed.
func (s *Strand) recomputeLimit() {
	lim := s.yieldLimit
	if s.nextInterrupt > 0 && s.nextInterrupt-1 < lim {
		lim = s.nextInterrupt - 1
	}
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
	if !s.yield(struct{}{}) {
		panic(strandStopped{})
	}
}

// strandStopped unwinds the body of a strand whose coroutine Run stopped.
type strandStopped struct{}

// stop retires s's coroutine, swallowing the strandStopped unwind of a body
// parked in yieldBaton. A coroutine that never started returns at once; one
// that already finished or panicked is unaffected.
func (s *Strand) stop() {
	defer func() {
		if r := recover(); r != nil && r != any(strandStopped{}) {
			panic(r)
		}
	}()
	s.cancel()
}

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
		s.clock += s.m.cfg.Costs.TLBWalk
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
				s.clock += s.m.cfg.Costs.TLBWalk
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
	s.clock += s.m.cfg.Costs.PageFault
	s.stats.PageFaults++
	pg.walkable = true
	if write {
		pg.writable = true
	}
}

// ---- Cache ----

// fill brings line into the strand's L1 (and the shared L2), charging the
// appropriate latency and maintaining the coherence directory. It reports
// whether the access hit in L1, whether a transactionally marked line was
// displaced to make room, and the slot now holding line — after fill the
// line is always resident (an L2 back-invalidation triggered by the fill
// can only target a different line), so callers need no re-lookup.
func (s *Strand) fill(line int32) (l1Hit bool, evictedMarked bool, idx int) {
	// L1-hit fast path: touch inlines here, so the common case is a masked
	// index, a short tag scan, and one latency charge.
	if i := s.l1.touch(line); i >= 0 {
		s.clock += s.m.cfg.Costs.L1Hit
		return true, false, i
	}
	return s.fillMiss(line)
}

// fillMiss services the L1 miss half of fill (the touch above already
// advanced the L1 LRU tick): pick a victim, consult the shared L2, and
// maintain the coherence directory.
func (s *Strand) fillMiss(line int32) (l1Hit bool, evictedMarked bool, idx int) {
	c := &s.m.cfg.Costs
	evicted, evMark, idx := s.l1.fillVictim(line)
	s.stats.L1Misses++
	if evicted != -1 {
		lm := &s.m.mem.lines[evicted]
		lm.present &^= s.bit
		if evMark {
			// A transactionally marked line was displaced. A sticky design
			// with budget left absorbs it — the directory marks survive in
			// the overflow set and the caller sees no eviction; otherwise
			// (always, under the default) the marks are dropped and the
			// caller aborts.
			evMark = !s.spillMarked(lm)
		} else {
			lm.marked &^= s.bit
			lm.written &^= s.bit
		}
	}
	l2hit, l2evicted := s.m.l2.access(line)
	if l2hit {
		s.clock += c.L2Hit
	} else {
		s.clock += c.MemAccess
		s.stats.L2Misses++
	}
	if l2evicted != -1 && l2evicted != line {
		s.backInvalidate(l2evicted)
	}
	s.m.mem.lines[line].present |= s.bit
	return false, evMark, idx
}

// backInvalidate removes a line evicted from the inclusive L2 from every
// L1; transactions holding it marked abort with COH (Section 3's
// single-threaded "coherence" surprises).
func (s *Strand) backInvalidate(line int32) {
	lm := &s.m.mem.lines[line]
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
		_, wasMarked := t.l1.invalidate(line)
		if wasMarked || lm.marked&t.bit != 0 {
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
// buffered store cannot coexist with our read (requester wins). Masking
// with activeMask is exactly doomRemote's tx.active test, so only live
// writers are visited. Under eager version management doomRemote also
// unrolls each writer's undo log before this load reads memory.
func (s *Strand) loadConflict(lm *lineMeta) {
	for rest := lm.written & s.m.activeMask &^ s.bit; rest != 0; rest &= rest - 1 {
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
	s.advance(s.m.cfg.Costs.Op)
	s.stats.Loads++
	line := LineOf(a)
	s.translateLoad(a)
	s.fill(line)
	s.loadConflict(&s.m.mem.lines[line])
	return s.m.mem.words[a]
}

// Store performs an ordinary (non-transactional) store. It invalidates all
// other cached copies and dooms any transaction that had the line marked.
func (s *Strand) Store(a Addr, w Word) {
	s.assertNoTxn("Store")
	s.advance(s.m.cfg.Costs.Op)
	s.stats.Stores++
	s.own(a)
	s.m.mem.words[a] = w
}

// own is the exclusive-ownership request every non-transactional write
// makes: translate with write permission, fill the line and invalidate
// every other copy.
func (s *Strand) own(a Addr) {
	line := LineOf(a)
	s.translateStore(a)
	s.fill(line)
	s.storeInvalidate(line, &s.m.mem.lines[line])
}

// CAS performs an atomic compare-and-swap, returning the previous value and
// whether the swap happened. A CAS requests exclusive ownership whether or
// not it succeeds, so it dooms conflicting transactions either way — which
// is also why a "dummy CAS" (old == new == current value) is the idiom for
// warming the TLB and write permission without changing data (Section 3).
func (s *Strand) CAS(a Addr, old, new Word) (Word, bool) {
	s.assertNoTxn("CAS")
	s.advance(s.m.cfg.Costs.Op + s.m.cfg.Costs.CASExtra)
	s.stats.CASes++
	s.own(a)
	cur := s.m.mem.words[a]
	if cur != old {
		return cur, false
	}
	s.m.mem.words[a] = new
	return cur, true
}

// Add atomically adds delta to the word at a and returns the new value
// (a CAS loop in real code; modelled as one CAS-priced operation).
func (s *Strand) Add(a Addr, delta Word) Word {
	s.assertNoTxn("Add")
	s.advance(s.m.cfg.Costs.Op + s.m.cfg.Costs.CASExtra)
	s.stats.CASes++
	s.own(a)
	s.m.mem.words[a] += delta
	return s.m.mem.words[a]
}

// Branch models a conditional branch at the (arbitrary but stable) program
// counter pc with the given outcome, charging the mispredict penalty when
// the predictor is wrong.
func (s *Strand) Branch(pc uint32, taken bool) {
	s.advance(s.m.cfg.Costs.Op)
	if s.bp.predict(pc, taken) {
		s.stats.Mispredicts++
		s.clock += s.m.cfg.Costs.Mispredict
	}
}

// Exec models fetching code from the page containing codePage, filling the
// ITLB on a miss (outside transactions the walk just costs time).
func (s *Strand) Exec(codePage int32) {
	s.advance(s.m.cfg.Costs.Op)
	pg := &s.m.mem.pages[codePage]
	if !s.mmu.itlb.lookup(codePage, pg.gen) {
		s.clock += s.m.cfg.Costs.TLBWalk
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
