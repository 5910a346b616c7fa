package hytm

import (
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
)

func newMachine(strands int) *sim.Machine {
	cfg := sim.DefaultConfig(strands)
	cfg.MemWords = 1 << 21
	cfg.MaxCycles = 1 << 24
	return sim.New(cfg)
}

func TestHardwarePathCommits(t *testing.T) {
	m := newMachine(1)
	sys := New(sky.New(m), DefaultConfig())
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		for i := 0; i < 60; i++ {
			sys.Atomic(s, func(c core.Ctx) { c.Store(a, c.Load(a)+1) })
		}
	})
	st := sys.Stats()
	if st.HWCommits != 60 || st.SWCommits != 0 {
		t.Fatalf("hw=%d sw=%d, want 60/0", st.HWCommits, st.SWCommits)
	}
	if m.Mem().Peek(a) != 60 {
		t.Fatal("lost updates")
	}
}

func TestUnsupportedFallsToSoftware(t *testing.T) {
	m := newMachine(1)
	sys := New(sky.New(m), DefaultConfig())
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		sys.Atomic(s, func(c core.Ctx) {
			c.Call() // INST in hardware; cheap compute in software
			c.Store(a, 1)
		})
	})
	st := sys.Stats()
	if st.SWCommits != 1 {
		t.Fatalf("sw commits = %d, want 1", st.SWCommits)
	}
	if st.HWAttempts != 1 {
		t.Fatalf("hw attempts = %d, want exactly 1 (INST gives up)", st.HWAttempts)
	}
	if m.Mem().Peek(a) != 1 {
		t.Fatal("software fallback did not run")
	}
}

func TestConcurrentHardwareSoftwareMix(t *testing.T) {
	// Half the strands run blocks hardware cannot execute (forcing
	// software), the other half run hardware-friendly blocks; the shared
	// counter must be exact across the mixed modes.
	const threads, per = 4, 150
	m := newMachine(threads)
	sys := New(sky.New(m), DefaultConfig())
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		for i := 0; i < per; i++ {
			if s.ID()%2 == 0 {
				sys.Atomic(s, func(c core.Ctx) {
					c.Call()
					c.Store(a, c.Load(a)+1)
				})
			} else {
				sys.Atomic(s, func(c core.Ctx) {
					c.Store(a, c.Load(a)+1)
				})
			}
		}
	})
	if got := m.Mem().Peek(a); got != threads*per {
		t.Fatalf("counter = %d, want %d", got, threads*per)
	}
	st := sys.Stats()
	if st.SWCommits == 0 || st.HWCommits == 0 {
		t.Fatalf("expected a genuine hw/sw mix, got hw=%d sw=%d", st.HWCommits, st.SWCommits)
	}
}
