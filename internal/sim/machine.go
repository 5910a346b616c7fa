// Package sim implements a deterministic discrete-event simulator of a
// Rock-like chip multiprocessor: up to 64 hardware strands with private L1
// caches, TLBs and branch predictors over a shared L2 and word-addressed
// memory, plus the checkpoint-based best-effort hardware transactional
// memory that the paper studies.
//
// Strands are coroutines scheduled cooperatively in virtual-time order: a
// baton is passed so that exactly one strand executes at any moment, and a
// strand yields the baton whenever its cycle clock runs more than a quantum
// ahead of the laggard. This gives three properties the experiments need:
// runs are bit-for-bit reproducible, there are no Go data races by
// construction, and 1–16-"thread" scaling curves are meaningful even on a
// single-core host because throughput is computed from simulated cycles,
// not wall time.
//
// Each strand keeps one coroutine from its first Machine.Run until
// Machine.Recycle, so a machine driven by many short Runs, as the service
// tier drives its shards, pays for its coroutines once.
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"iter"
	"runtime"

	"rocktm/internal/obs"
)

// MaxStrands is the largest number of strands a machine supports (the
// coherence directory uses 64-bit presence masks). A Rock chip has 32.
const MaxStrands = 64

// DefaultMicroDTLB is the micro-DTLB size used both by DefaultConfig and by
// New's zero-value fallback. All of the paper-reconstruction experiments
// run with this value: it is large enough that micro-DTLB capacity misses
// are not the dominant ST cause in steady state, while a store to a freshly
// mapped page still misses it and needs the dummy-CAS warmup of Section
// 3.1. (Historically DefaultConfig said 64 while New's fallback said 8; the
// single constant removes that trap.)
const DefaultMicroDTLB = 64

// Mode selects the chip execution mode (Section 2 of the paper).
type Mode int

const (
	// SSE — Simultaneous Scout Execution — dedicates both hardware threads
	// of a core to one software thread: the store queue holds 32 entries
	// (two banks of 16) and the deferred queue is larger. All headline data
	// in the paper is taken in SSE mode.
	SSE Mode = iota
	// SE — Scout Execution — runs two software threads per core; each gets
	// a 16-entry store queue (two banks of 8), which makes transactional
	// stores overflow much sooner (the paper's Section 8.1 observes MSF
	// transactions failing with ST|SIZ in SE mode).
	SE
)

// Config describes a simulated machine. The zero value is not usable; call
// DefaultConfig and adjust.
type Config struct {
	// Strands is the number of hardware strands (software threads for our
	// purposes; in SSE mode each occupies a whole core).
	Strands int
	// MemWords sizes simulated memory, in 64-bit words.
	MemWords int
	// Mode selects SSE (default) or SE execution.
	Mode Mode
	// Seed makes runs reproducible; every strand derives its RNG from it.
	Seed uint64
	// Quantum is the scheduling granularity in cycles: a strand yields once
	// it runs this far ahead of the slowest runnable strand.
	Quantum int64
	// MaxCycles aborts the run (panic) if any strand's clock exceeds it;
	// it is a guard against virtual-time livelock in tests. 0 disables.
	MaxCycles int64

	// Costs is the cycle-cost table.
	Costs Costs

	// L1Sets and L1Ways shape each strand's L1 (default 128×4 = 32 KB).
	L1Sets, L1Ways int
	// L2Sets and L2Ways shape the shared L2 (default 4096×8 = 2 MB).
	L2Sets, L2Ways int
	// MicroDTLB, MainDTLB and ITLB are the translation-buffer sizes.
	MicroDTLB, MainDTLB, ITLB int

	// StoreQueuePerBank is the per-bank store-queue capacity; there are two
	// banks selected by a line-address bit. 0 means mode default (16 in
	// SSE, 8 in SE).
	StoreQueuePerBank int
	// DeferredQueue is the capacity of the deferred-instruction queue;
	// loads that miss the L1 inside a transaction defer their dependents,
	// and overflow aborts with CPS=SIZ. 0 means mode default (32 SSE/16 SE).
	DeferredQueue int
	// DeferPerMiss is how many deferred-queue entries each in-transaction
	// L1 miss consumes.
	DeferPerMiss int

	// CTIAbortProb is the probability that a mispredicted branch inside a
	// transaction aborts it (CPS=CTI).
	CTIAbortProb float64
	// UCTIAbortProb is the probability that a branch issued while the load
	// feeding its predicate is still outstanding aborts the transaction
	// with CPS=UCTI (possibly with a misleading companion bit).
	UCTIAbortProb float64
	// StoreAfterMissProb is the probability that a transactional store
	// whose address depends on an immediately preceding L1-missing load
	// aborts with CPS=ST ("store address unavailable due to an outstanding
	// load miss", Section 3.1).
	StoreAfterMissProb float64
	// ExogProb is the probability that intervening code runs between an
	// abort and the CPS read, replacing the register contents with EXOG.
	ExogProb float64
	// InterruptEvery delivers an asynchronous interrupt to each strand
	// every so many cycles; a transaction in flight aborts with CPS=ASYNC.
	// 0 disables.
	InterruptEvery int64

	// Faults configures deterministic fault injection (see FaultPlan). The
	// zero value injects nothing and leaves every RNG stream untouched, so
	// fault-free runs are bit-for-bit identical to pre-fault-injection
	// builds.
	Faults FaultPlan

	// HTM selects the point in the HTM design space the machine implements
	// (version management, conflict detection/resolution, set-eviction
	// tolerance — see HTMDesign and docs/HTM-DESIGN.md). The zero value is
	// Rock's design and is bit-for-bit identical to builds that predate the
	// knob, pinned by the golden cycle-identity digests.
	HTM HTMDesign
}

// DefaultConfig returns a Rock-flavoured configuration for n strands.
func DefaultConfig(n int) Config {
	return Config{
		Strands:            n,
		MemWords:           1 << 22, // 32 MB
		Mode:               SSE,
		Seed:               1,
		Quantum:            64,
		Costs:              DefaultCosts(),
		L1Sets:             128,
		L1Ways:             4,
		L2Sets:             4096,
		L2Ways:             8,
		MicroDTLB:          DefaultMicroDTLB,
		MainDTLB:           512,
		ITLB:               64,
		DeferPerMiss:       4,
		CTIAbortProb:       0.05,
		UCTIAbortProb:      0.15,
		StoreAfterMissProb: 0.3,
	}
}

// Digest returns a short content hash of the full configuration — every
// field that can change simulated behaviour, including the cost table.
// The experiment runner folds it into cache keys so a result computed
// under one machine configuration is never served for another.
func (c Config) Digest() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v", c)))
	return hex.EncodeToString(h[:8])
}

func (c *Config) storeQueuePerBank() int {
	if c.StoreQueuePerBank > 0 {
		return c.StoreQueuePerBank
	}
	if c.Mode == SE {
		return 8
	}
	return 16
}

func (c *Config) deferredQueue() int {
	if c.DeferredQueue > 0 {
		return c.DeferredQueue
	}
	if c.Mode == SE {
		return 16
	}
	return 32
}

// Machine is one simulated chip: shared memory, shared L2, and a set of
// strands driven in virtual-time order.
type Machine struct {
	cfg Config
	mem *Memory
	l2  *l2Cache

	strands []*Strand

	// Mode-dependent queue capacities, resolved once at construction so
	// the transaction hot paths never re-branch on cfg.Mode.
	sqPerBank int
	defQueue  int

	// HTM design point, resolved from cfg.HTM at construction for the same
	// reason. All four are their zero values under the default Rock design,
	// and every non-default branch in the transaction paths is gated on
	// them.
	vmEager   bool
	detLazy   bool
	resolve   ConflictResolution
	stickyCap int
	// txSeq issues machine-wide transaction begin timestamps for
	// ResTimestamp arbitration. It advances on every TxBegin regardless of
	// design (host state only — no cycles, no RNG draws), so flipping the
	// Resolve knob never perturbs the RNG streams.
	txSeq uint64

	// activeMask mirrors each strand's tx.active flag, one bit per strand
	// (set at TxBegin, cleared at commit and abort), so a load conflict
	// visits only the directory's writers that are still live.
	activeMask uint64

	// Scheduler state; only Run's driver goroutine touches it.
	//
	// parked is a binary min-heap of parked, not-done strands keyed
	// (clock, id) — the same total order the old O(strands) minParked scan
	// imposed (strict < with ascending iteration = lowest id wins ties).
	// Exactly one strand runs at a time and a parked strand's clock never
	// changes, so the only operations are push and pop-min: handoffs are
	// O(log strands) and the hot maybeYield check is a single compare
	// against the running strand's cached yield deadline.
	parked  []heapNode
	running bool

	// recycled is set by Recycle: the memory's frames and the L2 belong to
	// the pools from then on, and the machine must not run again.
	recycled bool

	// coros stops the strand coroutines of a machine nobody recycles (see
	// coroutines).
	coros *coroutines
}

// coroutines holds the stop function of each strand's coroutine, indexed
// by strand id. Only the Machine points at it, and a parked coroutine holds
// nothing but its strandBox, so once an unrecycled machine is collected
// this holder becomes unreachable and its finalizer stops the coroutines.
// The finalizer cannot sit on the Machine itself: Machine and Strand point
// at each other, and a finalizer in a reference cycle may never run.
type coroutines struct{ stops []func() }

// stop stops every coroutine and returns once each has exited, swallowing
// the strandStopped unwind of a body that was parked mid-run.
func (c *coroutines) stop() {
	for i, stop := range c.stops {
		if stop != nil {
			stopCoroutine(stop)
			c.stops[i] = nil
		}
	}
}

func stopCoroutine(stop func()) {
	defer func() {
		if r := recover(); r != nil && r != any(strandStopped{}) {
			panic(r)
		}
	}()
	stop()
}

// strandBox hands a strand's coroutine the body of each Run. It is all a
// parked coroutine holds: the coroutine clears it before parking, so the
// coroutine never keeps its strand or machine reachable between Runs.
type strandBox struct {
	body func(*Strand)
	s    *Strand
}

// loop is a strand's coroutine. It runs the body in the box, then parks by
// yielding finished=true (keeping its grown stack for the next Run's body)
// until the coroutine is stopped.
func (b *strandBox) loop(yield func(finished bool) bool) {
	for {
		b.s.yield = yield
		b.body(b.s)
		b.body, b.s = nil, nil
		if !yield(true) {
			return
		}
	}
}

// requirePow2 validates that a geometry parameter is a power of two — the
// cache set indexes and the free-slot bitmaps rely on mask arithmetic.
func requirePow2(field string, v int) {
	if v <= 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("sim: %s must be a power of two for mask indexing, got %d (round up to %d)",
			field, v, nextPow2(v)))
	}
}

// requirePositive validates a cache's way count: a set with no ways has
// nowhere to put a line.
func requirePositive(field string, v int) {
	if v <= 0 {
		panic(fmt.Sprintf("sim: %s must be positive, got %d", field, v))
	}
}

// nextPow2 returns the smallest power of two >= v (for the panic hint).
func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// New builds a machine. It panics on nonsensical configurations; machines
// are always constructed from code, not external input.
func New(cfg Config) *Machine {
	if cfg.Strands <= 0 || cfg.Strands > MaxStrands {
		panic(fmt.Sprintf("sim: Strands must be in [1,%d], got %d", MaxStrands, cfg.Strands))
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 64
	}
	if cfg.Costs.FreqGHz == 0 {
		cfg.Costs = DefaultCosts()
	}
	if cfg.L1Sets == 0 {
		cfg.L1Sets, cfg.L1Ways = 128, 4
	}
	if cfg.L2Sets == 0 {
		cfg.L2Sets, cfg.L2Ways = 4096, 8
	}
	if cfg.MicroDTLB == 0 {
		cfg.MicroDTLB = DefaultMicroDTLB
	}
	if cfg.MainDTLB == 0 {
		cfg.MainDTLB = 512
	}
	if cfg.ITLB == 0 {
		cfg.ITLB = 64
	}
	if cfg.DeferPerMiss == 0 {
		cfg.DeferPerMiss = 4
	}
	if cfg.MemWords == 0 {
		cfg.MemWords = 1 << 22
	}
	// The set indexes and TLB free-slot bitmaps use mask arithmetic, which
	// is only equivalent to the original modulo indexing for power-of-two
	// geometries. Every real machine (and the paper's Rock) is a power of
	// two anyway, so reject anything else loudly instead of simulating a
	// machine subtly different from the one asked for.
	requirePow2("L1Sets", cfg.L1Sets)
	requirePositive("L1Ways", cfg.L1Ways)
	requirePow2("L2Sets", cfg.L2Sets)
	requirePositive("L2Ways", cfg.L2Ways)
	requirePow2("MicroDTLB", cfg.MicroDTLB)
	requirePow2("MainDTLB", cfg.MainDTLB)
	requirePow2("ITLB", cfg.ITLB)
	cfg.HTM.validate()
	m := &Machine{
		cfg:       cfg,
		mem:       newMemory(cfg.MemWords),
		l2:        newL2(cfg.L2Sets, cfg.L2Ways),
		sqPerBank: cfg.storeQueuePerBank(),
		defQueue:  cfg.deferredQueue(),
		vmEager:   cfg.HTM.VM == VMEager,
		detLazy:   cfg.HTM.Detect == DetectLazy,
		resolve:   cfg.HTM.Resolve,
		stickyCap: cfg.HTM.StickyLines,
	}
	// Capacity-squeeze faults override the mode-resolved queue capacities.
	if q := cfg.Faults.SqueezeStoreQueue; q > 0 {
		m.sqPerBank = q
	}
	if q := cfg.Faults.SqueezeDeferredQueue; q > 0 {
		m.defQueue = q
	}
	m.strands = make([]*Strand, cfg.Strands)
	m.parked = make([]heapNode, 0, cfg.Strands)
	for i := range m.strands {
		m.strands[i] = newStrand(m, i)
	}
	m.coros = &coroutines{stops: make([]func(), cfg.Strands)}
	runtime.SetFinalizer(m.coros, (*coroutines).stop)
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Mem returns the simulated memory, for setup (Alloc/Poke) and validation
// (Peek) outside timed runs.
func (m *Machine) Mem() *Memory { return m.mem }

// Recycle stops the strand coroutines, returning once they have exited,
// then scrubs the frames of every page the machine touched and hands them,
// with the L2, to process-wide pools, so the next machine's construction
// and first touches reuse them instead of allocating. The machine that
// draws the L2 clears its set index and stores the sets its own run
// touches in the slots' capacity. Call it only after the machine's last
// use (including Peek-based validation): afterwards the simulated memory
// reads as zero and must not be written, and Run panics.
// A second call does nothing. A machine that is never recycled releases
// its coroutines when it is collected. Recycling is a host-side allocation
// strategy only — it never changes what a simulation computes.
func (m *Machine) Recycle() {
	if m.recycled {
		return
	}
	m.recycled = true
	m.stopCoroutines()
	runtime.SetFinalizer(m.coros, nil)
	m.mem.recycle()
	l2Pool.Put(m.l2)
	m.l2 = nil
}

// Strand returns strand i for pre-run configuration (it must not be driven
// outside Run).
func (m *Machine) Strand(i int) *Strand { return m.strands[i] }

// AttachEventSink adds k to every strand's list of hook-point sinks.
// Sinks only observe, so attaching one cannot change a run's virtual-time
// behaviour; any number may be attached, and each sees every event.
func (m *Machine) AttachEventSink(k obs.EventSink) {
	for _, s := range m.strands {
		s.sinks = append(s.sinks, k)
	}
}

// StartTrace attaches a fresh ring-buffer tracer, at the obs default
// per-strand capacity and the machine's clock frequency, and returns it.
func (m *Machine) StartTrace() *obs.Tracer {
	t := obs.NewTracer(len(m.strands), 0)
	t.SetFreqGHz(m.cfg.Costs.FreqGHz)
	m.AttachEventSink(t)
	return t
}

// Run executes body(strand) on every strand concurrently in virtual time
// and returns once all bodies have returned. A strand runs only while it
// holds the baton, so bodies may freely share simulated memory. Run may be
// called repeatedly; strand clocks, caches and predictors persist across
// calls (use a fresh Machine for an independent experiment).
//
// Each strand body runs on the strand's coroutine (iter.Pull), which the
// strand's first Run creates and every later Run reuses: Recycle stops the
// coroutines, and an unrecycled machine's are stopped once it is
// collected. This driver loop resumes whichever parked strand has the
// lowest (clock, id) — the same handoff decisions the old strand-to-strand
// channel baton made, executed as direct goroutine switches instead of
// park/wake round trips through the Go scheduler (~5x cheaper per handoff
// on a single-core host). A body panic (e.g. the MaxCycles livelock guard)
// propagates out of Run on the caller's goroutine; iter.Pull likewise
// forwards runtime.Goexit (t.Fatal inside a body), so Run never deadlocks
// on a dead strand. On the way out of a failed run Run stops every strand's
// coroutine, so it leaks none and the next Run starts fresh ones.
func (m *Machine) Run(body func(*Strand)) {
	if m.running {
		panic("sim: Run re-entered")
	}
	if m.recycled {
		panic("sim: Run on a machine after Recycle")
	}
	m.running = true
	m.parked = m.parked[:0]
	for _, s := range m.strands {
		s.parked = true
		m.heapPush(s)
		// A strand's first Run starts its coroutine; later Runs reuse it.
		if s.resume == nil {
			s.box = &strandBox{}
			s.resume, m.coros.stops[s.id] = iter.Pull(s.box.loop)
		}
		s.box.body, s.box.s = body, s
	}
	defer func() {
		if m.running { // a body panic or Goexit is unwinding through Run
			m.running = false
			m.stopCoroutines()
		}
	}()
	// Hand the baton to the strand with the lowest clock; keep handing it
	// to the laggard until every body has returned.
	c := m.heapPop()
	for {
		c.parked = false
		m.grant(c)
		if finished, _ := c.resume(); !finished {
			// c's body called yieldBaton: park it, resume the laggard.
			// heapReplaceMin(c) is the pop-then-push of the old handoff
			// fused into one sift-down.
			c.parked = true
			c = m.heapReplaceMin(c)
			continue
		}
		if len(m.parked) == 0 {
			break
		}
		c = m.heapPop()
	}
	m.running = false
}

// stopCoroutines stops every strand coroutine and returns once each has
// exited; the next Run creates fresh ones.
func (m *Machine) stopCoroutines() {
	m.coros.stop()
	for _, s := range m.strands {
		s.resume, s.box = nil, nil
	}
}

// yieldSentinel is the cached yield deadline when no handoff can ever be
// needed (no parked strand exists): far beyond any reachable clock.
const yieldSentinel = int64(1) << 62

// grant computes and caches s's yield deadline as it receives the baton:
// the clock at which it will have run a full quantum ahead of the laggard.
// Nothing can change the heap while s runs, so the deadline stays valid
// until s itself parks, finishes, or pops a strand — making the per-advance
// scheduling check a single compare.
func (m *Machine) grant(s *Strand) {
	if len(m.parked) == 0 {
		// No parked strand ⇔ runnable <= 1: never yield.
		s.yieldLimit = yieldSentinel
	} else {
		s.yieldLimit = int64(m.parked[0].key>>heapIDBits) + m.cfg.Quantum
	}
	s.recomputeLimit()
}

// heapNode is one parked strand with its ordering key packed into a
// single uint64: clock<<6 | id. Because id < MaxStrands = 64 fits in the
// low 6 bits and clocks are non-negative, unsigned comparison of packed
// keys is exactly the (clock, id) lexicographic order of the original
// linear minParked scan — and sift operations compare inline integers
// instead of chasing two *Strand pointers per step.
type heapNode struct {
	key uint64
	s   *Strand
}

// heapKey packs s's current (clock, id) ordering key.
func heapKey(s *Strand) uint64 {
	return uint64(s.clock)<<heapIDBits | uint64(s.id)
}

// heapIDBits is the width of the id field in a packed heap key;
// 1<<heapIDBits must be >= MaxStrands.
const heapIDBits = 6

// heapPush parks s into the scheduler heap.
func (m *Machine) heapPush(s *Strand) {
	h := append(m.parked, heapNode{heapKey(s), s})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[i].key >= h[p].key {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	m.parked = h
}

// heapReplaceMin atomically pops the minimum strand and parks s in its
// place with a single sift-down — the yield handoff in one heap operation.
// Because (clock, id) is a strict total order, the sequence of future pops
// and the identity of parked[0] depend only on the heap's *contents*, not
// its internal layout, so replace-min is observably identical to the
// pop-then-push it replaces.
//
// Its inline cost is over the default budget. It is inlined into Run's
// baton loop only because cmd/figures/default.pgo records that call as
// hot, by its line offset within Run, so an edit that moves the loop
// needs the profile retrained (docs/PERFORMANCE.md, "Re-training PGO").
func (m *Machine) heapReplaceMin(s *Strand) *Strand {
	h := m.parked
	n := len(h)
	top := h[0].s
	h[0] = heapNode{heapKey(s), s}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].key < h[least].key {
			least = l
		}
		if r < n && h[r].key < h[least].key {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

// heapPop removes and returns the parked strand with the lowest
// (clock, id). It must only be called when one exists.
func (m *Machine) heapPop() *Strand {
	h := m.parked
	n := len(h) - 1
	if n < 0 {
		panic("sim: no parked strand")
	}
	top := h[0].s
	h[0] = h[n]
	h[n] = heapNode{}
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].key < h[least].key {
			least = l
		}
		if r < n && h[r].key < h[least].key {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	m.parked = h
	return top
}

// MaxClock returns the largest strand clock — the elapsed virtual time of
// the run so far, in cycles.
func (m *Machine) MaxClock() int64 {
	var max int64
	for _, s := range m.strands {
		if s.clock > max {
			max = s.clock
		}
	}
	return max
}

// Seconds converts cycles to simulated seconds at the configured frequency.
func (m *Machine) Seconds(cycles int64) float64 {
	return float64(cycles) / (m.cfg.Costs.FreqGHz * 1e9)
}

// ElapsedSeconds returns MaxClock in simulated seconds.
func (m *Machine) ElapsedSeconds() float64 { return m.Seconds(m.MaxClock()) }
