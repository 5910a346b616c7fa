package locktm

import (
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/sim"
)

func newMachine(strands int) *sim.Machine {
	cfg := sim.DefaultConfig(strands)
	cfg.MemWords = 1 << 19
	cfg.MaxCycles = 1 << 42
	return sim.New(cfg)
}

func TestSpinLockMutualExclusion(t *testing.T) {
	const threads, per = 4, 200
	m := newMachine(threads)
	lock := NewSpinLock(m.Mem())
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		for i := 0; i < per; i++ {
			lock.Acquire(s)
			v := s.Load(a)
			s.Advance(10) // widen the window
			s.Store(a, v+1)
			lock.Release(s)
		}
	})
	if got := m.Mem().Peek(a); got != threads*per {
		t.Fatalf("counter = %d, want %d", got, threads*per)
	}
}

func TestRWLockReadersExcludeWriter(t *testing.T) {
	const threads = 4
	m := newMachine(threads)
	lock := NewRWLock(m.Mem())
	a := m.Mem().AllocLines(8)
	b := m.Mem().AllocLines(8)
	bad := false
	m.Run(func(s *sim.Strand) {
		for i := 0; i < 100; i++ {
			if s.ID() == 0 {
				lock.Acquire(s)
				s.Store(a, sim.Word(i))
				s.Advance(30)
				s.Store(b, sim.Word(i))
				lock.Release(s)
			} else {
				lock.AcquireRead(s)
				if s.Load(a) != s.Load(b) {
					bad = true
				}
				lock.ReleaseRead(s)
			}
		}
	})
	if bad {
		t.Fatal("reader observed a half-finished write section")
	}
}

func TestSystemsRunBodies(t *testing.T) {
	m := newMachine(2)
	one := NewOneLock(m)
	rw := NewRW(m)
	seq := NewSeq()
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		one.Atomic(s, func(c core.Ctx) { c.Store(a, c.Load(a)+1) })
		rw.Atomic(s, func(c core.Ctx) { c.Store(a, c.Load(a)+1) })
		rw.AtomicRO(s, func(c core.Ctx) { c.Load(a) })
		if s.ID() == 0 {
			seq.Atomic(s, func(c core.Ctx) { c.Store(a, c.Load(a)+1) })
		}
	})
	if got := m.Mem().Peek(a); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if one.Name() != "one-lock" || rw.Name() != "rw-lock" || seq.Name() != "seq" {
		t.Error("system names wrong")
	}
	if rw.Stats().ROFast != 2 {
		t.Errorf("ROFast = %d, want 2", rw.Stats().ROFast)
	}
}
