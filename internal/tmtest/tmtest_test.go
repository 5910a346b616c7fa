// Package tmtest cross-checks every synchronization system against the
// same atomicity and isolation obligations, in the spirit of the random
// transaction testing (TSOTool et al.) the paper relied on.
package tmtest

import (
	"fmt"
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/hytm"
	"rocktm/internal/locktm"
	"rocktm/internal/phtm"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/stm/tl2"
	"rocktm/internal/tle"
)

// sysFactory builds a fresh system bound to machine m.
type sysFactory struct {
	name  string
	build func(m *sim.Machine) core.System
}

func factories() []sysFactory {
	return []sysFactory{
		{"one-lock", func(m *sim.Machine) core.System { return locktm.NewOneLock(m) }},
		{"rw-lock", func(m *sim.Machine) core.System { return locktm.NewRW(m) }},
		{"stm-tl2", func(m *sim.Machine) core.System { return tl2.New(m) }},
		{"stm-sky", func(m *sim.Machine) core.System { return sky.New(m) }},
		{"hytm", func(m *sim.Machine) core.System { return hytm.New(sky.New(m), hytm.DefaultConfig()) }},
		{"phtm-sky", func(m *sim.Machine) core.System { return phtm.New(m, sky.New(m), phtm.DefaultConfig()) }},
		{"phtm-tl2", func(m *sim.Machine) core.System { return phtm.New(m, tl2.New(m), phtm.DefaultConfig()) }},
		{"tle", func(m *sim.Machine) core.System {
			return tle.New("tle", tle.SpinAdapter{L: locktm.NewSpinLock(m.Mem())}, tle.DefaultPolicy())
		}},
		// Each retrying system again under the adaptive policy, over its
		// own system's tuning.
		{"tle-adaptive", func(m *sim.Machine) core.System {
			pol := policy.NewAdaptive(policy.TLE())
			return adaptiveSystem{tle.New("tle", tle.SpinAdapter{L: locktm.NewSpinLock(m.Mem())}, pol), pol}
		}},
		{"phtm-adaptive", func(m *sim.Machine) core.System {
			cfg := phtm.DefaultConfig()
			pol := policy.NewAdaptive(policy.PhTM())
			cfg.Policy = pol
			return adaptiveSystem{phtm.New(m, sky.New(m), cfg), pol}
		}},
		{"hytm-adaptive", func(m *sim.Machine) core.System {
			pol := policy.NewAdaptive(policy.HyTM())
			return adaptiveSystem{hytm.New(sky.New(m), hytm.Config{Policy: pol}), pol}
		}},
	}
}

// adaptiveSystem is a system retrying under an adaptive policy, kept
// beside it so that a test can read the histograms the policy learned.
type adaptiveSystem struct {
	core.System
	pol *policy.Adaptive
}

func testMachine(strands int, seed uint64) *sim.Machine {
	cfg := sim.DefaultConfig(strands)
	cfg.MemWords = 1 << 21
	cfg.Seed = seed
	cfg.MaxCycles = 1 << 24
	return sim.New(cfg)
}

var pcTransfer = core.PC("tmtest.transfer")

// TestAtomicTransfersConserveSum runs randomized transfers between
// accounts under every system and checks (a) the final total is conserved
// and (b) every read-only audit inside an atomic block observes the
// invariant total — the isolation/opacity obligation.
func TestAtomicTransfersConserveSum(t *testing.T) {
	const (
		accounts = 32
		initial  = 1000
		perOps   = 300
		threads  = 4
	)
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			m := testMachine(threads, 42)
			sys := f.build(m)
			base := m.Mem().AllocLines(accounts)
			for i := 0; i < accounts; i++ {
				m.Mem().Poke(base+sim.Addr(i), initial)
			}
			audits := 0
			badAudits := 0
			m.Run(func(s *sim.Strand) {
				for op := 0; op < perOps; op++ {
					if s.RandIntn(4) == 0 {
						// Audit: sum all accounts inside one atomic block.
						var sum sim.Word
						sys.AtomicRO(s, func(c core.Ctx) {
							sum = 0
							for i := 0; i < accounts; i++ {
								sum += c.Load(base + sim.Addr(i))
							}
						})
						audits++
						if sum != accounts*initial {
							badAudits++
						}
						continue
					}
					from := s.RandIntn(accounts)
					to := s.RandIntn(accounts)
					amt := sim.Word(1 + s.RandIntn(10))
					sys.Atomic(s, func(c core.Ctx) {
						fv := c.Load(base + sim.Addr(from))
						tv := c.Load(base + sim.Addr(to))
						c.Branch(pcTransfer, fv >= amt, true)
						if fv < amt {
							return
						}
						if from == to {
							return
						}
						c.Store(base+sim.Addr(from), fv-amt)
						c.Store(base+sim.Addr(to), tv+amt)
					})
				}
			})
			var total sim.Word
			for i := 0; i < accounts; i++ {
				total += m.Mem().Peek(base + sim.Addr(i))
			}
			if total != accounts*initial {
				t.Errorf("%s: total = %d, want %d", f.name, total, accounts*initial)
			}
			if badAudits > 0 {
				t.Errorf("%s: %d/%d audits saw a torn total", f.name, badAudits, audits)
			}
		})
	}
}

// TestCountingExact increments one shared counter from many strands under
// every system; the final count must be exact.
func TestCountingExact(t *testing.T) {
	const (
		perOps  = 400
		threads = 6
	)
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			m := testMachine(threads, 7)
			sys := f.build(m)
			ctr := m.Mem().AllocLines(sim.WordsPerLine)
			m.Run(func(s *sim.Strand) {
				for op := 0; op < perOps; op++ {
					sys.Atomic(s, func(c core.Ctx) {
						c.Store(ctr, c.Load(ctr)+1)
					})
				}
			})
			if got := m.Mem().Peek(ctr); got != perOps*threads {
				t.Errorf("%s: counter = %d, want %d", f.name, got, perOps*threads)
			}
		})
	}
}

// TestDeterministicAcrossRuns verifies that a full multi-threaded run under
// each system is reproducible cycle-for-cycle with the same seed.
func TestDeterministicAcrossRuns(t *testing.T) {
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			run := func() (int64, sim.Word) {
				m := testMachine(3, 99)
				sys := f.build(m)
				ctr := m.Mem().AllocLines(sim.WordsPerLine)
				m.Run(func(s *sim.Strand) {
					for op := 0; op < 150; op++ {
						sys.Atomic(s, func(c core.Ctx) {
							c.Store(ctr, c.Load(ctr)+sim.Word(s.ID())+1)
						})
					}
				})
				return m.MaxClock(), m.Mem().Peek(ctr)
			}
			c1, v1 := run()
			c2, v2 := run()
			if c1 != c2 || v1 != v2 {
				t.Errorf("%s: nondeterministic: (%d,%d) vs (%d,%d)", f.name, c1, v1, c2, v2)
			}
		})
	}
}

// TestStatsAccounting sanity-checks the statistics every system reports.
func TestStatsAccounting(t *testing.T) {
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			m := testMachine(2, 5)
			sys := f.build(m)
			x := m.Mem().AllocLines(sim.WordsPerLine)
			const perOps = 100
			m.Run(func(s *sim.Strand) {
				for op := 0; op < perOps; op++ {
					sys.Atomic(s, func(c core.Ctx) {
						c.Store(x, c.Load(x)+1)
					})
				}
			})
			st := sys.Stats()
			if st.Ops != 2*perOps {
				t.Errorf("%s: Ops = %d, want %d", f.name, st.Ops, 2*perOps)
			}
			if st.HWCommits > st.HWAttempts {
				t.Errorf("%s: HWCommits %d > HWAttempts %d", f.name, st.HWCommits, st.HWAttempts)
			}
			if fmt.Sprint(sys.Name()) == "" {
				t.Errorf("empty system name")
			}
		})
	}
}
