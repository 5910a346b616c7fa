// Package tle implements Transactional Lock Elision (Section 7 of the
// paper): a lock-based critical section is executed as a hardware
// transaction that merely *reads* the lock word and verifies it is free, so
// non-conflicting critical sections run in parallel. If the transaction
// cannot commit, the policy retries — guided by the CPS register — and
// eventually falls back to really acquiring the lock. Because an elided
// transaction has the lock word in its read set, a fallback acquisition
// dooms all concurrent elisions, preserving lock semantics.
//
// The retry loop is policy.Run, and New takes the policy it runs under.
// DefaultPolicy is "paper" over policy.TLE() (the Section 6.1 heuristics,
// with TLE's back-off-on-UCTI wrinkle); SimplePolicy is "naive" (the STL
// vector experiment's fixed-count loop). TLE supplies only its own paths:
// a hardware attempt that reads the lock word, a wait for the policy's
// Wait verdict — the explicit TCC abort means the lock is really held, so
// it spins (with backoff) until the lock word reads free — and the lock
// acquisition it falls back to.
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
		a.L.Acquire(s)
	}
}

// Release implements ElidableLock.
func (a RWAdapter) Release(s *sim.Strand, ro bool) {
	if ro {
		a.L.ReleaseRead(s)
	} else {
		a.L.Release(s)
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
	t.Execute(s, t.lock, body, false)
}

// AtomicRO implements core.System.
func (t *System) AtomicRO(s *sim.Strand, body func(core.Ctx)) {
	t.Execute(s, t.lock, body, true)
}

// Execute runs body under elision of lock, which Atomic and AtomicRO pass
// as the system's own lock and the mini-JVM as one of its per-object
// monitors. Each hardware attempt reads the lock word (placing it in the
// transaction's read set) and aborts explicitly if the lock is held; the
// policy's Wait verdict spins until the lock reads free; a block that
// leaves hardware acquires the lock.
func (t *System) Execute(s *sim.Strand, lock ElidableLock, body func(core.Ctx), ro bool) {
	// The elision wrapper's dispatch costs a little on every block.
	s.Advance(2)
	took, sawCOH := false, false
	if t.throttle != nil {
		took = t.throttle.enter(s)
	}
	lockAddr := lock.Addr()
	hw := func(tx rock.Txn) {
		if tx.Load(lockAddr) != 0 {
			tx.Abort()
		}
		body(tx)
	}
	try := func() (bool, cps.Bits) {
		ok, c := rock.Try(s, hw)
		sawCOH = sawCOH || c.Has(cps.COH)
		return ok, c
	}
	wait := func() bool {
		for spin := 0; s.Load(lockAddr) != 0; spin++ {
			core.Backoff(s, spin)
		}
		return true
	}
	committed := policy.Run(s, t.pol, t.stats, try, wait)
	if !committed {
		s.TraceEvent(obs.EvFallback, uint64(lockAddr))
		lock.Acquire(s, ro)
		body(core.Raw{S: s})
		lock.Release(s, ro)
		t.stats.LockAcquires++
		t.stats.Ops++
	}
	if t.throttle != nil {
		t.throttle.leave(s, took, sawCOH && !committed)
	}
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
