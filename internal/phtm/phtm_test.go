package phtm

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

func TestHardwarePhaseByDefault(t *testing.T) {
	m := newMachine(1)
	sys := New(m, sky.New(m), DefaultConfig())
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		for i := 0; i < 100; i++ {
			sys.Atomic(s, func(c core.Ctx) { c.Store(a, c.Load(a)+1) })
		}
	})
	st := sys.Stats()
	if st.HWCommits != 100 || st.SWCommits != 0 {
		t.Fatalf("hw=%d sw=%d, want 100/0", st.HWCommits, st.SWCommits)
	}
}

func TestUnsupportedBlockSwitchesPhaseAndDrainsBack(t *testing.T) {
	m := newMachine(1)
	cfg := DefaultConfig()
	cfg.SWHold = 4
	sys := New(m, sky.New(m), cfg)
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		// A block with a function call can never commit in hardware: it
		// must trigger the software phase.
		sys.Atomic(s, func(c core.Ctx) {
			c.Call()
			c.Store(a, c.Load(a)+1)
		})
		if m.Mem().Peek(sys.swMode) == 0 {
			t.Error("software phase not triggered")
		}
		// SWHold plain blocks drain the phase back to hardware.
		for i := 0; i < int(cfg.SWHold); i++ {
			sys.Atomic(s, func(c core.Ctx) { c.Store(a, c.Load(a)+1) })
		}
		if m.Mem().Peek(sys.swMode) != 0 {
			t.Errorf("software phase did not drain: mode=%d", m.Mem().Peek(sys.swMode))
		}
		// And the next block runs in hardware again.
		before := sys.Stats().HWCommits
		sys.Atomic(s, func(c core.Ctx) { c.Store(a, c.Load(a)+1) })
		if sys.Stats().HWCommits != before+1 {
			t.Error("did not return to the hardware phase")
		}
	})
	if got := m.Mem().Peek(a); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
}

func TestHardwareAbortsWhileSoftwareActive(t *testing.T) {
	// Strand 1 holds a software transaction open; strand 0's hardware
	// attempts must observe swCount != 0 and wait, never committing a
	// conflicting result.
	m := newMachine(2)
	sys := New(m, sky.New(m), DefaultConfig())
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		if s.ID() == 1 {
			// Force this strand into the software path via an unsupported
			// instruction, and dwell inside it.
			sys.Atomic(s, func(c core.Ctx) {
				c.Call()
				c.Store(a, c.Load(a)+100)
				c.Strand().Advance(4000)
			})
		} else {
			s.Advance(1500)
			sys.Atomic(s, func(c core.Ctx) { c.Store(a, c.Load(a)+1) })
		}
	})
	if got := m.Mem().Peek(a); got != 101 {
		t.Fatalf("value = %d, want 101 (both updates exactly once)", got)
	}
}

func TestNameOverride(t *testing.T) {
	m := newMachine(1)
	sys := New(m, sky.New(m), DefaultConfig())
	if sys.Name() != "phtm" {
		t.Errorf("default name %q", sys.Name())
	}
	sys.SetName("phtm-tl2")
	if sys.Name() != "phtm-tl2" {
		t.Errorf("renamed to %q", sys.Name())
	}
}
