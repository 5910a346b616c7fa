// Package core defines the transactional-memory programming interface that
// every data structure and workload in this repository is written against,
// and that every synchronization system implements: raw best-effort HTM,
// the TL2 and SkySTM software TMs, the HyTM and PhTM hybrids, transactional
// lock elision, plain locks, and unprotected sequential execution.
//
// In the paper this role is played by the HyTM/PhTM C++ compiler and
// library: application code is written once against load/store barriers and
// the library decides how an atomic block actually executes. Ctx is those
// barriers; System is the library.
package core

import (
	"hash/fnv"

	"rocktm/internal/cps"
	"rocktm/internal/sim"
)

// Ctx is the access interface visible inside an atomic block. Exactly how a
// Load or Store executes — as a hardware-transactional access, an
// STM-instrumented access, or a plain access under a lock — is the
// implementing system's business.
//
// Branch, Div and Call exist because the *instruction mix* of an atomic
// block determines its fate on Rock: data-dependent branches can abort with
// CTI/UCTI, divide instructions abort with FP, and function calls
// (save/restore) abort with INST. Data-structure code declares these events
// and each system maps them to its own cost or failure model.
type Ctx interface {
	// Load reads a word from simulated memory.
	Load(a sim.Addr) sim.Word
	// Store writes a word to simulated memory.
	Store(a sim.Addr, w sim.Word)
	// Branch declares a conditional branch at stable site pc with the given
	// outcome; dependsOnLoad marks predicates computed from the immediately
	// preceding Load.
	Branch(pc uint32, taken bool, dependsOnLoad bool)
	// Div declares a divide instruction.
	Div()
	// Call declares a function call (register-window save/restore).
	Call()
	// Strand returns the executing strand, e.g. to charge pure compute
	// cycles via Advance.
	Strand() *sim.Strand
}

// System executes atomic blocks on behalf of application code.
type System interface {
	// Name identifies the system in experiment output ("phtm", "stm-tl2",
	// "one-lock", ...).
	Name() string
	// Atomic runs body atomically on strand s, retrying/falling back as the
	// system's policy dictates. It returns only after the block has taken
	// effect exactly once.
	Atomic(s *sim.Strand, body func(Ctx))
	// AtomicRO runs a read-only block; systems with a cheaper read path
	// (e.g. a reader-writer lock) may exploit the hint. The default is to
	// treat it exactly like Atomic.
	AtomicRO(s *sim.Strand, body func(Ctx))
	// Stats returns the system's cumulative execution statistics.
	Stats() *Stats
}

// Stats counts how a system's atomic blocks executed. All mutation happens
// under the machine baton, so plain fields suffice.
type Stats struct {
	// Ops is the number of atomic blocks completed.
	Ops uint64
	// HWAttempts and HWCommits count hardware transaction attempts and
	// successes; HWBlocks counts atomic blocks that made at least one
	// hardware attempt, so HWAttempts-HWBlocks is the number of retries.
	HWAttempts, HWCommits, HWBlocks uint64
	// SWCommits and SWAborts count software (STM) transaction outcomes.
	SWCommits, SWAborts uint64
	// LockAcquires counts fallbacks to actually taking a lock.
	LockAcquires uint64
	// ROFast counts read-only blocks served by a cheaper read path.
	ROFast uint64
	// CPSHist is the distribution of CPS values over failed hardware
	// transaction attempts.
	CPSHist *cps.Histogram
}

// NewStats returns a zeroed Stats with an allocated histogram.
func NewStats() *Stats { return &Stats{CPSHist: cps.NewHistogram()} }

// RecordFailure notes one failed hardware attempt with the given CPS value.
func (st *Stats) RecordFailure(c cps.Bits) { st.CPSHist.Add(c) }

// RetryFraction is the fraction of hardware attempts that were retries
// (attempts beyond a block's first), the statistic behind the paper's
// "more than half of the hardware transactions are retries" observation.
func (st *Stats) RetryFraction() float64 {
	if st.HWAttempts == 0 {
		return 0
	}
	return float64(st.HWAttempts-st.HWBlocks) / float64(st.HWAttempts)
}

// Merge folds other into st (for aggregating sharded stats).
func (st *Stats) Merge(other *Stats) {
	st.Ops += other.Ops
	st.HWAttempts += other.HWAttempts
	st.HWCommits += other.HWCommits
	st.HWBlocks += other.HWBlocks
	st.SWCommits += other.SWCommits
	st.SWAborts += other.SWAborts
	st.LockAcquires += other.LockAcquires
	st.ROFast += other.ROFast
	st.CPSHist.Merge(other.CPSHist)
}

// PC derives a stable branch-site identifier from a name. Call it once per
// site (package var), not per execution.
func PC(site string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(site))
	return h.Sum32()
}

// CallCost is the cycle cost a non-HTM execution charges for a declared
// function call; DivCost likewise for a divide instruction.
const (
	CallCost = 6
	DivCost  = 24
)

// Backoff charges a randomized exponential delay for the given retry
// attempt (0-based). Simple software backoff is the mechanism the paper
// found effective against requester-wins livelock under contention
// (Section 4).
func Backoff(s *sim.Strand, attempt int) {
	if attempt > 7 {
		attempt = 7
	}
	window := int64(32) << uint(attempt)
	s.Advance(16 + int64(s.Rand()%uint64(window)))
}

// Setup is a zero-cost Ctx over raw memory for pre-run prepopulation and
// post-run validation: accesses are Peek/Poke, charging no cycles and
// touching no caches. Strand returns nil; setup code must not use it.
type Setup struct {
	Mem *sim.Memory
}

// Load implements Ctx.
func (p Setup) Load(a sim.Addr) sim.Word { return p.Mem.Peek(a) }

// Store implements Ctx.
func (p Setup) Store(a sim.Addr, w sim.Word) { p.Mem.Poke(a, w) }

// Branch implements Ctx.
func (p Setup) Branch(uint32, bool, bool) {}

// Div implements Ctx.
func (p Setup) Div() {}

// Call implements Ctx.
func (p Setup) Call() {}

// Strand implements Ctx (setup has no strand; callers must not use it).
func (p Setup) Strand() *sim.Strand { return nil }

// Raw is the Ctx of unprotected execution: every access goes straight to
// the strand. It is the execution context under a held lock, inside a
// successful lock-elision transaction's fallback, and for the sequential
// baseline.
type Raw struct {
	S *sim.Strand
}

// Load implements Ctx.
func (r Raw) Load(a sim.Addr) sim.Word { return r.S.Load(a) }

// Store implements Ctx.
func (r Raw) Store(a sim.Addr, w sim.Word) { r.S.Store(a, w) }

// Branch implements Ctx.
func (r Raw) Branch(pc uint32, taken bool, _ bool) { r.S.Branch(pc, taken) }

// Div implements Ctx.
func (r Raw) Div() { r.S.Advance(DivCost) }

// Call implements Ctx.
func (r Raw) Call() { r.S.Advance(CallCost) }

// Strand implements Ctx.
func (r Raw) Strand() *sim.Strand { return r.S }
