package bench

import (
	"slices"

	"rocktm/internal/core"
	"rocktm/internal/hytm"
	"rocktm/internal/locktm"
	"rocktm/internal/phtm"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/stm/tl2"
	"rocktm/internal/tle"
)

// SysBuilder constructs a fresh synchronization system bound to a machine;
// each (system, thread-count) experiment cell gets its own machine and
// system so statistics and caches start cold and runs stay independent.
type SysBuilder struct {
	Name  string
	Build func(m *sim.Machine) core.System
}

// standardSystems is every system the figures build under its standard
// name and default configuration. An experiment selects its set by name
// with systems.
var standardSystems = []SysBuilder{
	{"phtm", func(m *sim.Machine) core.System {
		return phtm.New(m, sky.New(m), phtm.DefaultConfig())
	}},
	{"phtm-tl2", func(m *sim.Machine) core.System {
		s := phtm.New(m, tl2.New(m), phtm.DefaultConfig())
		s.SetName("phtm-tl2")
		return s
	}},
	{"hytm", func(m *sim.Machine) core.System {
		return hytm.New(sky.New(m), hytm.DefaultConfig())
	}},
	{"stm", func(m *sim.Machine) core.System {
		return sky.New(m)
	}},
	{"stm-tl2", func(m *sim.Machine) core.System {
		return tl2.New(m)
	}},
	{"one-lock", func(m *sim.Machine) core.System {
		return locktm.NewOneLock(m)
	}},
	{"tle", func(m *sim.Machine) core.System {
		return tle.New("tle", tle.SpinAdapter{L: locktm.NewSpinLock(m.Mem())}, tle.DefaultPolicy())
	}},
}

// systems selects standard systems by name, in the order given.
func systems(names ...string) []SysBuilder {
	out := make([]SysBuilder, len(names))
	for i, name := range names {
		j := slices.IndexFunc(standardSystems, func(sb SysBuilder) bool { return sb.Name == name })
		if j < 0 {
			panic("bench: unknown system " + name)
		}
		out[i] = standardSystems[j]
	}
	return out
}

// tmSystems is Figure 1/2's six systems, in the paper's legend order.
func tmSystems() []SysBuilder {
	return systems("phtm", "phtm-tl2", "hytm", "stm", "stm-tl2", "one-lock")
}

// tleOverSpin builds the TLE system the C++ experiments use (fixed retry
// count, no CPS heuristics) over a single spinlock.
func tleOverSpin(m *sim.Machine, retries int) core.System {
	return tle.New("htm.oneLock", tle.SpinAdapter{L: locktm.NewSpinLock(m.Mem())}, tle.SimplePolicy(retries))
}

// tleOverRW builds TLE over a reader-writer lock.
func tleOverRW(m *sim.Machine, retries int) core.System {
	return tle.New("htm.rwLock", tle.RWAdapter{L: locktm.NewRWLock(m.Mem())}, tle.SimplePolicy(retries))
}
