// Package tle implements Transactional Lock Elision (Section 7 of the
// paper): a lock-based critical section is executed as a hardware
// transaction that merely *reads* the lock word and verifies it is free, so
// non-conflicting critical sections run in parallel. If the transaction
// cannot commit, the policy retries — guided by the CPS register — and
// eventually falls back to really acquiring the lock. Because an elided
// transaction has the lock word in its read set, a fallback acquisition
// dooms all concurrent elisions, preserving lock semantics.
//
// Retry intelligence lives in the shared internal/policy engine, and New
// takes a built policy. DefaultPolicy is "paper" over policy.TLE() (the
// Section 6.1 heuristics, with TLE's back-off-on-UCTI wrinkle);
// SimplePolicy is "naive" (the STL vector experiment's fixed-count loop).
// TLE's system-specific rule is the explicit TCC abort: it means the lock
// is really held, so the engine's Wait verdict is served here by spinning
// (with backoff) until the lock word reads free.
package tle

import (
	"rocktm/internal/core"
	"rocktm/internal/cps"
	"rocktm/internal/locktm"
	"rocktm/internal/obs"
	"rocktm/internal/policy"
	"rocktm/internal/rock"
	"rocktm/internal/sim"
)

// ElidableLock is the lock interface TLE wraps: a single word that is zero
// exactly when the lock is free, plus acquire/release for the fallback
// path. The ro flag selects a shared acquisition where the lock supports
// one.
type ElidableLock interface {
	Addr() sim.Addr
	Acquire(s *sim.Strand, ro bool)
	Release(s *sim.Strand, ro bool)
}

// SpinAdapter adapts a locktm.SpinLock.
type SpinAdapter struct{ L *locktm.SpinLock }

// Addr implements ElidableLock.
func (a SpinAdapter) Addr() sim.Addr { return a.L.Addr() }

// Acquire implements ElidableLock.
func (a SpinAdapter) Acquire(s *sim.Strand, _ bool) { a.L.Acquire(s) }

// Release implements ElidableLock.
func (a SpinAdapter) Release(s *sim.Strand, _ bool) { a.L.Release(s) }

// RWAdapter adapts a locktm.RWLock; read-only fallbacks acquire shared.
type RWAdapter struct{ L *locktm.RWLock }

// Addr implements ElidableLock.
func (a RWAdapter) Addr() sim.Addr { return a.L.Addr() }

// Acquire implements ElidableLock.
func (a RWAdapter) Acquire(s *sim.Strand, ro bool) {
	if ro {
		a.L.AcquireRead(s)
	} else {
		a.L.AcquireWrite(s)
	}
}

// Release implements ElidableLock.
func (a RWAdapter) Release(s *sim.Strand, ro bool) {
	if ro {
		a.L.ReleaseRead(s)
	} else {
		a.L.ReleaseWrite(s)
	}
}

// DefaultPolicy returns the CPS-guided policy used by the modified JVM and
// the MSF experiments.
func DefaultPolicy() policy.Policy { return policy.MustNew("paper", policy.TLE()) }

// SimplePolicy returns the fixed-count policy of the STL vector experiment:
// n attempts, no CPS consultation. A TCC abort still waits for the lock at
// TLE's charge: the experiment's loop honored the lock-held convention.
func SimplePolicy(n int) policy.Policy {
	t := policy.TLE()
	t.Budget = float64(n)
	return policy.MustNew("naive", t)
}

// System is a core.System executing every atomic block as an elided
// critical section of a single lock.
type System struct {
	name     string
	lock     ElidableLock
	pol      policy.Policy
	stats    *core.Stats
	throttle *Throttle
}

// New builds a TLE system over the given lock, retrying under pol.
func New(name string, lock ElidableLock, pol policy.Policy) *System {
	return &System{
		name:  name,
		lock:  lock,
		pol:   pol,
		stats: core.NewStats(),
	}
}

// Name implements core.System.
func (t *System) Name() string { return t.name }

// Stats implements core.System.
func (t *System) Stats() *core.Stats { return t.stats }

// Atomic implements core.System.
func (t *System) Atomic(s *sim.Strand, body func(core.Ctx)) {
	t.run(s, body, false)
}

// AtomicRO implements core.System.
func (t *System) AtomicRO(s *sim.Strand, body func(core.Ctx)) {
	t.run(s, body, true)
}

// Execute runs body under elision of an arbitrary caller-supplied lock
// (used by the mini-JVM, which has one monitor per object rather than one
// global lock).
func (t *System) Execute(s *sim.Strand, lock ElidableLock, body func(core.Ctx), ro bool) {
	t.executeOn(s, lock, body, ro)
}

func (t *System) run(s *sim.Strand, body func(core.Ctx), ro bool) {
	t.executeOn(s, t.lock, body, ro)
}

func (t *System) executeOn(s *sim.Strand, lock ElidableLock, body func(core.Ctx), ro bool) {
	st := t.stats
	// The elision wrapper's dispatch costs a little on every block.
	s.Advance(2)
	sawCOH := false
	fellToLock := false
	if t.throttle != nil {
		took := t.throttle.enter(s)
		defer func() { t.throttle.leave(s, took, sawCOH && fellToLock) }()
	}
	lockAddr := lock.Addr()
	st.HWBlocks++
	// Bind the engine once per block. The top-of-loop budget check makes
	// a zero budget (SimplePolicy(0)) lock every block without one
	// hardware attempt.
	eng := policy.Start(t.pol, 0)
attempts:
	for !eng.Exhausted() {
		st.HWAttempts++
		ok, c := Try(s, lockAddr, body)
		if ok {
			st.HWCommits++
			st.Ops++
			eng.OnCommit()
			return
		}
		if c.Has(cps.COH) {
			sawCOH = true
		}
		st.RecordFailure(c)
		switch eng.OnFailure(s, c) {
		case policy.Wait:
			// The explicit abort: the lock was really held. Wait for it
			// to free up, then retry (the loop condition re-checks the
			// budget, which the wait's charge may have exhausted).
			for spin := 0; s.Load(lockAddr) != 0; spin++ {
				core.Backoff(s, spin)
			}
		case policy.Fallback:
			break attempts
		}
	}
	eng.OnFallback()
	fellToLock = true
	s.TraceEvent(obs.EvFallback, uint64(lock.Addr()))
	lock.Acquire(s, ro)
	body(core.Raw{S: s})
	lock.Release(s, ro)
	st.LockAcquires++
	st.Ops++
}

// Try runs body once as an elided hardware transaction: the transaction
// reads the lock word (placing it in its read set), aborts explicitly if
// the lock is held, and otherwise runs the critical section speculatively.
func Try(s *sim.Strand, lockAddr sim.Addr, body func(core.Ctx)) (bool, cps.Bits) {
	return rock.Try(s, func(tx rock.Txn) {
		if tx.Load(lockAddr) != 0 {
			tx.Abort()
		}
		body(rock.Ctx{T: tx})
	})
}

// Throttle is the adaptive concurrency limiter sketched as future work in
// Section 7.2 ("adaptively throttling concurrency when contention
// arises"): an admission counter in simulated memory bounds how many
// strands may attempt elision at once. The limit follows an
// additive-increase / multiplicative-decrease rule driven by observed
// outcomes — coherence failures shrink it toward serial execution,
// successes grow it back toward full concurrency.
type Throttle struct {
	active sim.Addr
	limit  int
	max    int
	// successes since the last adjustment
	streak int
}

// NewThrottle builds a limiter for machines of up to maxConcurrency
// strands.
func NewThrottle(m *sim.Machine) *Throttle {
	n := m.Config().Strands
	return &Throttle{
		active: m.Mem().AllocLines(sim.WordsPerLine),
		limit:  n,
		max:    n,
	}
}

// enter blocks (spinning in virtual time) until an elision slot is free.
// While the limit sits at the maximum — no contention observed — admission
// is free: the shared counter is not touched at all, so the throttle costs
// nothing on the uncontended fast path. It reports whether a slot was
// actually taken.
func (th *Throttle) enter(s *sim.Strand) bool {
	if th.limit >= th.max {
		return false
	}
	for spin := 0; ; spin++ {
		cur := s.Load(th.active)
		if int(cur) < th.limit {
			if _, ok := s.CAS(th.active, cur, cur+1); ok {
				return true
			}
			continue
		}
		core.Backoff(s, spin)
	}
}

// leave releases the slot (if one was taken) and adapts the limit:
// multiplicative decrease when a block exhausted its elision budget on
// coherence conflicts, additive increase after a run of clean blocks.
func (th *Throttle) leave(s *sim.Strand, took, contended bool) {
	if took {
		s.Add(th.active, ^sim.Word(0))
	}
	if contended {
		th.streak = 0
		if th.limit > 1 {
			th.limit /= 2
		}
		return
	}
	th.streak++
	if th.streak >= 32 && th.limit < th.max {
		th.limit++
		th.streak = 0
	}
}

// SetThrottle installs an adaptive concurrency limiter on the system (nil
// removes it).
func (t *System) SetThrottle(th *Throttle) { t.throttle = th }
