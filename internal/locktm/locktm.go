// Package locktm provides the lock-based baselines of the paper's
// experiments: a single test-and-test-and-set spinlock ("one-lock"), a
// reader-writer spinlock ("rw-lock"), and unprotected sequential execution
// ("seq"). The locks live in simulated memory, so lock traffic has
// authentic cache behaviour — and so that a hardware transaction can read a
// lock word into its read set and get doomed when someone acquires it,
// which is exactly what transactional lock elision relies on.
package locktm

import (
	"rocktm/internal/core"
	"rocktm/internal/obs"
	"rocktm/internal/sim"
)

// SpinLock is a test-and-test-and-set spinlock with exponential backoff in
// simulated memory.
type SpinLock struct {
	addr sim.Addr
}

// NewSpinLock allocates a lock on its own cache line (to avoid false
// sharing with neighbouring data).
func NewSpinLock(mem *sim.Memory) *SpinLock {
	return &SpinLock{addr: mem.AllocLines(sim.WordsPerLine)}
}

// Addr returns the lock word's address (the word TLE reads to validate the
// lock is free).
func (l *SpinLock) Addr() sim.Addr { return l.addr }

// Acquire spins until the lock is taken.
func (l *SpinLock) Acquire(s *sim.Strand) {
	for attempt := 0; ; attempt++ {
		if s.Load(l.addr) == 0 {
			if _, ok := s.CAS(l.addr, 0, 1); ok {
				s.TraceEvent(obs.EvLockAcquire, uint64(l.addr))
				return
			}
		}
		core.Backoff(s, attempt)
	}
}

// Release frees the lock.
func (l *SpinLock) Release(s *sim.Strand) {
	s.Store(l.addr, 0)
	s.TraceEvent(obs.EvLockRelease, uint64(l.addr))
}

// RWLock is a reader-writer spinlock: the word holds 2*readers, with the
// low bit set while a writer holds it. The write side is the embedded
// SpinLock on the same word: Acquire takes the word from 0 to 1 and
// Release frees it.
type RWLock struct {
	SpinLock
}

// NewRWLock allocates a reader-writer lock on its own cache line.
func NewRWLock(mem *sim.Memory) *RWLock {
	return &RWLock{SpinLock{addr: mem.AllocLines(sim.WordsPerLine)}}
}

const rwWriter = 1

// AcquireRead takes the lock shared.
func (l *RWLock) AcquireRead(s *sim.Strand) {
	for attempt := 0; ; attempt++ {
		cur := s.Load(l.addr)
		if cur&rwWriter == 0 {
			if _, ok := s.CAS(l.addr, cur, cur+2); ok {
				s.TraceEvent(obs.EvLockAcquire, uint64(l.addr))
				return
			}
		}
		core.Backoff(s, attempt)
	}
}

// ReleaseRead drops a shared hold.
func (l *RWLock) ReleaseRead(s *sim.Strand) {
	for {
		cur := s.Load(l.addr)
		if _, ok := s.CAS(l.addr, cur, cur-2); ok {
			s.TraceEvent(obs.EvLockRelease, uint64(l.addr))
			return
		}
	}
}

// OneLock is the "one-lock" System: every atomic block runs under a single
// global spinlock.
type OneLock struct {
	lock  *SpinLock
	stats *core.Stats
}

// NewOneLock builds the system over machine m.
func NewOneLock(m *sim.Machine) *OneLock {
	return &OneLock{lock: NewSpinLock(m.Mem()), stats: core.NewStats()}
}

// Name implements core.System.
func (o *OneLock) Name() string { return "one-lock" }

// Atomic implements core.System.
func (o *OneLock) Atomic(s *sim.Strand, body func(core.Ctx)) {
	o.lock.Acquire(s)
	body(core.Raw{S: s})
	o.lock.Release(s)
	o.stats.Ops++
	o.stats.LockAcquires++
}

// AtomicRO implements core.System.
func (o *OneLock) AtomicRO(s *sim.Strand, body func(core.Ctx)) { o.Atomic(s, body) }

// Stats implements core.System.
func (o *OneLock) Stats() *core.Stats { return o.stats }

// RW is the reader-writer-lock System: read-only blocks take the lock
// shared.
type RW struct {
	lock  *RWLock
	stats *core.Stats
}

// NewRW builds the system over machine m.
func NewRW(m *sim.Machine) *RW {
	return &RW{lock: NewRWLock(m.Mem()), stats: core.NewStats()}
}

// Name implements core.System.
func (r *RW) Name() string { return "rw-lock" }

// Atomic implements core.System.
func (r *RW) Atomic(s *sim.Strand, body func(core.Ctx)) {
	r.lock.Acquire(s)
	body(core.Raw{S: s})
	r.lock.Release(s)
	r.stats.Ops++
	r.stats.LockAcquires++
}

// AtomicRO implements core.System.
func (r *RW) AtomicRO(s *sim.Strand, body func(core.Ctx)) {
	r.lock.AcquireRead(s)
	body(core.Raw{S: s})
	r.lock.ReleaseRead(s)
	r.stats.Ops++
	r.stats.ROFast++
}

// Stats implements core.System.
func (r *RW) Stats() *core.Stats { return r.stats }

// Seq is unprotected execution, the sequential baseline (msf-seq): atomic
// blocks run raw with no synchronization at all. Only meaningful single
// threaded.
type Seq struct {
	stats *core.Stats
}

// NewSeq builds the sequential baseline.
func NewSeq() *Seq { return &Seq{stats: core.NewStats()} }

// Name implements core.System.
func (q *Seq) Name() string { return "seq" }

// Atomic implements core.System.
func (q *Seq) Atomic(s *sim.Strand, body func(core.Ctx)) {
	body(core.Raw{S: s})
	q.stats.Ops++
}

// AtomicRO implements core.System.
func (q *Seq) AtomicRO(s *sim.Strand, body func(core.Ctx)) { q.Atomic(s, body) }

// Stats implements core.System.
func (q *Seq) Stats() *core.Stats { return q.stats }
