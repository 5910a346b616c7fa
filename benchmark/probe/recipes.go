package main

import (
	"fmt"

	"rocktm/internal/core"
	"rocktm/internal/hashtable"
	"rocktm/internal/hytm"
	"rocktm/internal/locktm"
	"rocktm/internal/phtm"
	"rocktm/internal/rbtree"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/stm/tl2"
	"rocktm/internal/tle"
	"rocktm/internal/workload"
)

// The cell recipes below are copies of the ones in internal/bench (kv.go,
// systems.go, tail.go, fleet.go). They are copied rather than imported
// because the bench package runs cells behind its runner, where no layer
// can be timed on its own. The benchmark checks every replayed cell against
// the figure point that cmd/figures printed for it, so a recipe that drifts
// from internal/bench fails the benchmark instead of going unnoticed.

// defaultThreads is the thread axis cmd/figures uses by default.
var defaultThreads = []int{1, 2, 3, 4, 6, 8, 12, 16}

// tmSystem names one synchronization system and builds it over a fresh
// machine.
type tmSystem struct {
	name  string
	build func(m *sim.Machine) core.System
}

// tmSystems is the system set of Figures 1 and 2.
func tmSystems() []tmSystem {
	return []tmSystem{
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
		{"stm", func(m *sim.Machine) core.System { return sky.New(m) }},
		{"stm-tl2", func(m *sim.Machine) core.System { return tl2.New(m) }},
		{"one-lock", func(m *sim.Machine) core.System { return locktm.NewOneLock(m) }},
	}
}

// tailSystems is the system set of the tail and fleet experiments.
func tailSystems() []tmSystem {
	return []tmSystem{
		{"phtm", func(m *sim.Machine) core.System {
			return phtm.New(m, sky.New(m), phtm.DefaultConfig())
		}},
		{"tle", func(m *sim.Machine) core.System {
			return tle.New("tle", tle.SpinAdapter{L: locktm.NewSpinLock(m.Mem())}, tle.DefaultPolicy())
		}},
		{"stm", func(m *sim.Machine) core.System { return sky.New(m) }},
		{"one-lock", func(m *sim.Machine) core.System { return locktm.NewOneLock(m) }},
	}
}

// session is one strand's view of a key-value structure.
type session interface {
	Lookup(key uint64) (sim.Word, bool)
	Insert(key uint64, val sim.Word) bool
	Delete(key uint64) bool
}

// structure builds and prepopulates a key-value structure on m and returns
// the per-strand session constructor.
type structure func(m *sim.Machine, keyRange int) func(sys core.System, s *sim.Strand) session

func hashtableKV(buckets int) structure {
	return func(m *sim.Machine, keyRange int) func(core.System, *sim.Strand) session {
		t := hashtable.New(m, buckets, keyRange+2*m.Config().Strands+64)
		t.Prepopulate(m.Mem(), workload.PrepopHalf(keyRange), 1)
		return func(sys core.System, s *sim.Strand) session { return t.NewSession(sys, s) }
	}
}

func rbtreeKV(m *sim.Machine, keyRange int) func(core.System, *sim.Strand) session {
	t := rbtree.New(m, keyRange+2*m.Config().Strands+64)
	t.Prepopulate(m.Mem(), workload.PrepopHalfShuffled(keyRange, 7), 1)
	return func(sys core.System, s *sim.Strand) session { return t.NewSession(sys, s) }
}

// kvRecipe is one key-value cell shape: a structure, its key range and op
// mix, and the machine's memory size.
type kvRecipe struct {
	keyRange  int
	pctLookup int
	memWords  int
	build     structure
	keys      workload.Keys // zero value: uniform over keyRange
	latency   bool          // record per-operation latency, as the tail and fleet figures do
}

var (
	fig2aRecipe = kvRecipe{keyRange: 128, pctLookup: 100, memWords: 1 << 22, build: rbtreeKV}
	fig2bRecipe = kvRecipe{keyRange: 2048, pctLookup: 96, memWords: 1 << 22, build: rbtreeKV}
	tailHT      = kvRecipe{keyRange: 4096, pctLookup: 50, memWords: 1 << 23, build: hashtableKV(1 << 12), latency: true}
	tailRBTree  = kvRecipe{keyRange: 2048, pctLookup: 90, memWords: 1 << 22, build: rbtreeKV, latency: true}
)

// Fleet-cell constants, as in internal/bench/fleet.go.
const (
	fleetKeyRange = 1024
	fleetBuckets  = 1 << 9
	fleetMemWords = 1 << 21
	fleetStrands  = 4
	fleetBaseGap  = 1024.0
	fleetFailPct  = 5
)

func fleetShardAxis() []int { return []int{1, 2, 4} }

func fleetArrival(shards int) workload.Arrival {
	return workload.Diurnal(fleetBaseGap/float64(shards), 5, 1<<20, 0.6)
}

type fleetScenario struct {
	name   string
	keys   workload.Keys
	router string
}

func fleetScenarios() []fleetScenario {
	return []fleetScenario{
		{"uniform", workload.Uniform(fleetKeyRange), "hash"},
		{"zipf", workload.Zipfian(fleetKeyRange, 0.99), "hash"},
		{"zipf/hot", workload.Zipfian(fleetKeyRange, 0.99), "hot"},
	}
}

// cell is one replayable figure point. run replays it, adds its layer
// timings and counts to the tally and returns the point's ops_per_usec.
type cell struct {
	curve string
	x     int // thread count, or shard count for fleet cells
	run   func(t *tally) (float64, error)
}

// experimentCells returns the cells of one cmd/figures experiment in the
// order the figure lists its points (curve-major).
func experimentCells(exp string, ops int, seed uint64) ([]cell, error) {
	switch exp {
	case "fig2a":
		return kvCells(systemCurves(fig2aRecipe), ops, seed), nil
	case "fig2b":
		return kvCells(systemCurves(fig2bRecipe), ops, seed), nil
	case "tail":
		return kvCells(tailCurves(), ops, seed), nil
	case "fleet":
		return fleetCells(ops, seed), nil
	}
	return nil, fmt.Errorf("no recipe for experiment %q (have fig2a, fig2b, tail, fleet)", exp)
}

// kvCurve is one curve of a key-value figure.
type kvCurve struct {
	name string
	r    kvRecipe
	sb   tmSystem
}

// systemCurves is one curve per Figure 1/2 system over recipe r.
func systemCurves(r kvRecipe) []kvCurve {
	var curves []kvCurve
	for _, sb := range tmSystems() {
		curves = append(curves, kvCurve{sb.name, r, sb})
	}
	return curves
}

// tailCurves is structure × system × key skew, as TailFigure lays it out.
func tailCurves() []kvCurve {
	skews := []struct {
		name string
		keys func(r int) workload.Keys
	}{
		{"uniform", func(r int) workload.Keys { return workload.Uniform(r) }},
		{"zipf0.9", func(r int) workload.Keys { return workload.Zipfian(r, 0.9) }},
		{"zipf0.99", func(r int) workload.Keys { return workload.Zipfian(r, 0.99) }},
	}
	var curves []kvCurve
	for _, st := range []struct {
		name string
		r    kvRecipe
	}{{"ht", tailHT}, {"rbtree", tailRBTree}} {
		for _, sb := range tailSystems() {
			for _, sk := range skews {
				r := st.r
				r.keys = sk.keys(r.keyRange)
				curves = append(curves, kvCurve{st.name + "/" + sb.name + "/" + sk.name, r, sb})
			}
		}
	}
	return curves
}

// kvCells lays the curves out over the default thread axis.
func kvCells(curves []kvCurve, ops int, seed uint64) []cell {
	var cells []cell
	for _, c := range curves {
		for _, th := range defaultThreads {
			c, th := c, th
			cells = append(cells, cell{curve: c.name, x: th, run: func(t *tally) (float64, error) {
				return runKV(t, c.r, c.sb, th, ops, seed), nil
			}})
		}
	}
	return cells
}

// fleetCells is system × scenario × cross-shard fraction over the shard
// axis, as FleetFigure lays it out.
func fleetCells(ops int, seed uint64) []cell {
	var cells []cell
	for _, sb := range tailSystems() {
		for _, sc := range fleetScenarios() {
			for _, xf := range []int{0, 10} {
				name := sb.name + "/" + sc.name
				if xf > 0 {
					name += fmt.Sprintf("+x%d", xf)
				}
				for _, shards := range fleetShardAxis() {
					sb, sc, xf, shards := sb, sc, xf, shards
					cells = append(cells, cell{curve: name, x: shards, run: func(t *tally) (float64, error) {
						return runFleet(t, sc, sb, shards, xf, ops, seed)
					}})
				}
			}
		}
	}
	return cells
}
