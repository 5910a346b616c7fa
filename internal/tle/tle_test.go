package tle

import (
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/cps"
	"rocktm/internal/locktm"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
)

func newMachine(strands int) *sim.Machine {
	cfg := sim.DefaultConfig(strands)
	cfg.MemWords = 1 << 20
	cfg.MaxCycles = 1 << 24
	return sim.New(cfg)
}

func newTLE(m *sim.Machine, pol policy.Policy) *System {
	return New("tle", SpinAdapter{L: locktm.NewSpinLock(m.Mem())}, pol)
}

func TestElisionCommitsWithoutLock(t *testing.T) {
	m := newMachine(1)
	sys := newTLE(m, DefaultPolicy())
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		for i := 0; i < 50; i++ {
			sys.Atomic(s, func(c core.Ctx) { c.Store(a, c.Load(a)+1) })
		}
	})
	st := sys.Stats()
	if st.HWCommits != 50 || st.LockAcquires != 0 {
		t.Fatalf("commits=%d lockAcquires=%d, want 50/0", st.HWCommits, st.LockAcquires)
	}
	if m.Mem().Peek(a) != 50 {
		t.Fatal("lost updates")
	}
}

func TestGiveUpOnUnsupportedInstruction(t *testing.T) {
	m := newMachine(1)
	sys := newTLE(m, DefaultPolicy())
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		sys.Atomic(s, func(c core.Ctx) {
			c.Call() // save/restore: INST in hardware, cheap under the lock
			c.Store(a, 1)
		})
	})
	st := sys.Stats()
	if st.LockAcquires != 1 {
		t.Fatalf("lock acquires = %d, want 1 (immediate give-up on INST)", st.LockAcquires)
	}
	if st.HWAttempts != 1 {
		t.Fatalf("hw attempts = %d, want exactly 1 before giving up", st.HWAttempts)
	}
	if m.Mem().Peek(a) != 1 {
		t.Fatal("fallback did not run the body")
	}
}

func TestSimplePolicyIgnoresCPS(t *testing.T) {
	m := newMachine(1)
	sys := newTLE(m, SimplePolicy(3))
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		sys.Atomic(s, func(c core.Ctx) {
			c.Call()
			c.Store(a, 1)
		})
	})
	st := sys.Stats()
	if st.HWAttempts != 3 {
		t.Fatalf("hw attempts = %d, want 3 (fixed budget, no CPS give-up)", st.HWAttempts)
	}
	if st.CPSHist.BitCount(cps.INST) != 3 {
		t.Fatalf("INST failures = %d, want 3", st.CPSHist.BitCount(cps.INST))
	}
}

// A zero retry budget disables elision: no block attempts hardware and
// every block takes the lock.
func TestDisabledAlwaysLocks(t *testing.T) {
	m := newMachine(1)
	sys := newTLE(m, SimplePolicy(0))
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		for i := 0; i < 10; i++ {
			sys.Atomic(s, func(c core.Ctx) { c.Store(a, c.Load(a)+1) })
		}
	})
	st := sys.Stats()
	if st.HWAttempts != 0 || st.LockAcquires != 10 {
		t.Fatalf("attempts=%d lock=%d, want 0/10", st.HWAttempts, st.LockAcquires)
	}
	if m.Mem().Peek(a) != 10 {
		t.Fatal("lost updates")
	}
}

func TestLockHolderDoomsElidedTxns(t *testing.T) {
	// Strand 1 takes the real lock and mutates; strand 0's elision attempts
	// during that window must not observe partial state.
	m := newMachine(2)
	lock := locktm.NewSpinLock(m.Mem())
	sys := New("tle", SpinAdapter{L: lock}, DefaultPolicy())
	a := m.Mem().AllocLines(8)
	b := m.Mem().AllocLines(8)
	bad := false
	m.Run(func(s *sim.Strand) {
		if s.ID() == 0 {
			for i := 0; i < 40; i++ {
				sys.Atomic(s, func(c core.Ctx) {
					x := c.Load(a)
					y := c.Load(b)
					if x != y {
						bad = true
					}
				})
			}
		} else {
			for i := 0; i < 40; i++ {
				lock.Acquire(s)
				s.Store(a, sim.Word(i))
				s.Advance(50)
				s.Store(b, sim.Word(i))
				lock.Release(s)
			}
		}
	})
	if bad {
		t.Fatal("elided transaction observed a torn critical section")
	}
}

func TestRWAdapterReadersShareFallback(t *testing.T) {
	m := newMachine(2)
	rw := locktm.NewRWLock(m.Mem())
	// A policy that always gives up forces the fallback path, exercising
	// the shared-acquisition plumbing.
	sys := New("tle-rw", RWAdapter{L: rw}, SimplePolicy(0))
	a := m.Mem().AllocLines(8)
	m.Mem().Poke(a, 9)
	m.Run(func(s *sim.Strand) {
		for i := 0; i < 20; i++ {
			sys.AtomicRO(s, func(c core.Ctx) {
				if c.Load(a) != 9 {
					t.Error("bad read")
				}
			})
		}
	})
	if got := sys.Stats().LockAcquires; got != 40 {
		t.Fatalf("lock acquires = %d, want 40", got)
	}
}

func TestThrottleAdaptsAndRecovers(t *testing.T) {
	m := newMachine(4)
	th := NewThrottle(m)
	if th.limit != 4 {
		t.Fatalf("initial limit = %d", th.limit)
	}
	m.Run(func(s *sim.Strand) {
		if s.ID() != 0 {
			return
		}
		took := th.enter(s)
		if took {
			t.Error("enter at full limit must be free (no slot taken)")
		}
		th.leave(s, took, true) // contention: halve
		if th.limit != 2 {
			t.Errorf("limit after decrease = %d, want 2", th.limit)
		}
		// Now entering takes a slot.
		if !th.enter(s) {
			t.Error("enter below max must take a slot")
		}
		th.leave(s, true, false)
		for i := 0; i < 2*32; i++ {
			took := th.enter(s)
			th.leave(s, took, false)
		}
		if th.limit != 4 {
			t.Errorf("limit did not recover: %d", th.limit)
		}
	})
}
