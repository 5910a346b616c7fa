package jvm

import (
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/sim"
	"rocktm/internal/tle"
)

func newMachine(strands int) *sim.Machine {
	cfg := sim.DefaultConfig(strands)
	cfg.MemWords = 1 << 19
	cfg.MaxCycles = 1 << 42
	return sim.New(cfg)
}

func TestSynchronizedExcludes(t *testing.T) {
	const threads, per = 4, 150
	m := newMachine(threads)
	vm := New(m, tle.DefaultPolicy())
	mon := vm.NewMonitor(m)
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		for i := 0; i < per; i++ {
			vm.Synchronized(s, mon, func(c core.Ctx) {
				c.Store(a, c.Load(a)+1)
			})
		}
	})
	if got := m.Mem().Peek(a); got != threads*per {
		t.Fatalf("counter = %d, want %d", got, threads*per)
	}
}

func TestElisionTogglesCount(t *testing.T) {
	for _, elide := range []bool{true, false} {
		m := newMachine(1)
		vm := New(m, tle.DefaultPolicy())
		vm.Elide = elide
		mon := vm.NewMonitor(m)
		a := m.Mem().AllocLines(8)
		m.Run(func(s *sim.Strand) {
			for i := 0; i < 20; i++ {
				vm.Synchronized(s, mon, func(c core.Ctx) { c.Store(a, 1) })
			}
		})
		st := vm.Stats()
		if elide && st.HWCommits != 20 {
			t.Errorf("elide=true: hw commits = %d, want 20", st.HWCommits)
		}
		// Elision emitted but disabled (Section 7.2): no block attempts
		// hardware, every block takes its monitor.
		if !elide && (st.HWAttempts != 0 || st.HWCommits != 0 || st.LockAcquires != 20) {
			t.Errorf("elide=false: attempts=%d hw=%d lock=%d, want 0/0/20", st.HWAttempts, st.HWCommits, st.LockAcquires)
		}
	}
}

func TestCallSiteOutlinesAfterThreshold(t *testing.T) {
	m := newMachine(1)
	cs := &CallSite{OutlineAfter: 3}
	m.Run(func(s *sim.Strand) {
		c := core.Raw{S: s}
		for i := 0; i < 3; i++ {
			cs.Invoke(c)
			if cs.Outlined() {
				t.Fatalf("outlined after only %d invocations", i+1)
			}
		}
		cs.Invoke(c)
		if !cs.Outlined() {
			t.Fatal("not outlined past the threshold")
		}
	})
	// OutlineAfter == 0 never outlines.
	cs2 := &CallSite{}
	m2 := newMachine(1)
	m2.Run(func(s *sim.Strand) {
		c := core.Raw{S: s}
		for i := 0; i < 100; i++ {
			cs2.Invoke(c)
		}
	})
	if cs2.Outlined() {
		t.Fatal("zero-threshold site outlined")
	}
}

func TestDistinctMonitorsDoNotSerialize(t *testing.T) {
	// Two strands on two monitors under plain locking must never contend:
	// lock acquisitions succeed without dooming each other's work.
	m := newMachine(2)
	vm := New(m, tle.DefaultPolicy())
	vm.Elide = false
	mons := []*Monitor{vm.NewMonitor(m), vm.NewMonitor(m)}
	addrs := []sim.Addr{m.Mem().AllocLines(8), m.Mem().AllocLines(8)}
	m.Run(func(s *sim.Strand) {
		mon, a := mons[s.ID()], addrs[s.ID()]
		for i := 0; i < 100; i++ {
			vm.Synchronized(s, mon, func(c core.Ctx) {
				c.Store(a, c.Load(a)+1)
			})
		}
	})
	for i, a := range addrs {
		if got := m.Mem().Peek(a); got != 100 {
			t.Fatalf("monitor %d counter = %d, want 100", i, got)
		}
	}
}
