package bench

import (
	"fmt"
	"strconv"

	"rocktm/internal/obs/timeseries"
	"rocktm/internal/runner"
	"rocktm/internal/service"
	"rocktm/internal/workload"
)

// The fleet experiment: the E23/E24 single-machine tail machinery scaled
// out to the sharded service tier of internal/service. Each cell builds a
// fleet of `shards` independent machines running one TM system, offers it
// an open-loop diurnal request stream through a pluggable router with
// per-shard batching and a cross-shard 2PC fraction, and records
// fleet-wide request latency (queueing and coordination included) plus
// per-shard window series. The notes judge the top-shard-count fleet of
// every curve: per-shard SLO verdicts with burn rates, hot-shard
// imbalance, pathology findings, and 2PC commit/abort counts. E25 asks
// whether the E23 single-machine system ranking survives the move to a
// fleet — the scenarios are chosen so routing, not raw concurrency,
// decides the tail.

// fleetPoint is the fleet experiment's cell payload: the standard figure
// point (Threads carries the shard count — the experiment's x-axis) plus
// the per-shard evidence the notes are derived from. Everything survives
// the runner's canonical-JSON round trip byte-identically.
type fleetPoint struct {
	Point Point
	// ShardOps is each shard's completed single-op count (imbalance).
	ShardOps []uint64
	// Series is each shard's windowed timeseries, machine-cycle aligned.
	Series []timeseries.Series
	// Committed2PC and Aborted2PC count the cell's cross-shard outcomes.
	Committed2PC uint64
	Aborted2PC   uint64
}

// Fixed fleet-cell parameters. The offered load weak-scales: requests and
// arrival rate both grow with the shard count, so per-shard load is
// constant and the x-axis isolates coordination and routing effects.
const (
	fleetKeyRange = 1024
	fleetBuckets  = 1 << 9
	fleetMemWords = 1 << 21
	fleetStrands  = 4
	fleetBaseGap  = 1024.0
	fleetFailPct  = 5
)

// fleetShardAxis is the experiment's x-axis (shard counts).
func fleetShardAxis() []int { return []int{1, 2, 4} }

// fleetArrival is the cell's arrival process: a diurnal envelope (±60%
// around the base rate over a ~1M-cycle period) with the mean gap scaled
// down as shards scale up.
func fleetArrival(shards int) workload.Arrival {
	return workload.Diurnal(fleetBaseGap/float64(shards), 5, 1<<20, 0.6)
}

// fleetSLOs is the per-shard objective: p99.9 request latency — arrival
// to completion, through queueing, batching and any 2PC legs — within
// 32k cycles in 98% of windows. The bound sits between a healthy shard
// (batch deadline 4k + service) and a hot shard absorbing a zipfian storm.
func fleetSLOs() []timeseries.SLO {
	return []timeseries.SLO{{
		Name:       "shard-tail",
		Percentile: "p99.9",
		MaxCycles:  32768,
		TargetFrac: 0.98,
		MinOps:     8,
	}}
}

// fleetScenario is one skew × router combination.
type fleetScenario struct {
	name   string
	keys   workload.Keys
	router string
}

// fleetScenarios is the skew/router axis: the uniform baseline, the
// zipfian storm on the oblivious hash router, and the same storm on the
// hot-shard-aware router that splits the top ranks.
func fleetScenarios() []fleetScenario {
	return []fleetScenario{
		{"uniform", workload.Uniform(fleetKeyRange), "hash"},
		{"zipf", workload.Zipfian(fleetKeyRange, 0.99), "hash"},
		{"zipf/hot", workload.Zipfian(fleetKeyRange, 0.99), "hot"},
	}
}

// runFleet executes one fleet cell.
func runFleet(o Options, scenario fleetScenario, sb SysBuilder, shards, crossPct int, width int64) (fleetPoint, error) {
	router, err := service.NewRouter(scenario.router, shards, fleetKeyRange)
	if err != nil {
		return fleetPoint{}, err
	}
	f, err := service.New(service.Config{
		Shards:       shards,
		Strands:      fleetStrands,
		KeyRange:     fleetKeyRange,
		Buckets:      fleetBuckets,
		MemWords:     fleetMemWords,
		Seed:         o.Seed,
		System:       sb.Build,
		Router:       router,
		CoordFailPct: fleetFailPct,
		Window:       width,
	})
	if err != nil {
		return fleetPoint{}, err
	}
	defer f.Recycle()
	res, err := f.Run(service.LoadSpec{
		Requests:  o.OpsPerThread * shards,
		PctLookup: 50,
		Keys:      scenario.keys,
		Arrival:   fleetArrival(shards),
		CrossPct:  crossPct,
		Seed:      o.Seed,
	})
	if err != nil {
		return fleetPoint{}, err
	}
	lat := res.Lat
	fp := fleetPoint{
		Point: Point{
			Threads:    shards,
			OpsPerUsec: res.Throughput(),
			Extra:      workload.StatsSummary(res.Stats),
			Lat:        &lat,
		},
		Committed2PC: res.Committed2PC,
		Aborted2PC:   res.Aborted2PC,
	}
	for _, sh := range res.Shards {
		fp.ShardOps = append(fp.ShardOps, sh.Ops)
	}
	fp.Series = append(fp.Series, res.Series...)
	return fp, nil
}

// fleetSpec identifies one fleet cell for the runner's cache: the shard-0
// machine config (every shard's config differs only in the folded seed)
// plus every knob that shapes the fleet or its payload.
func (o Options) fleetSpec(scenario fleetScenario, system string, shards, crossPct int, width int64) runner.Spec {
	cfg := service.Config{
		Shards:   shards,
		Strands:  fleetStrands,
		MemWords: fleetMemWords,
		Seed:     o.Seed,
	}
	params := map[string]string{
		"strands":  itoa(fleetStrands),
		"keyrange": itoa(fleetKeyRange),
		"skew":     scenario.keys.String(),
		"router":   scenario.router,
		"xfrac":    itoa(crossPct),
		"arrival":  fleetArrival(shards).String(),
		"batch":    "8:4096",
		"failpct":  itoa(fleetFailPct),
		"window":   strconv.FormatInt(width, 10),
	}
	return o.spec("fleet", system, shards, service.MachineConfig(cfg, 0), params)
}

// FleetFigure is the `-exp fleet` experiment: system × scenario ×
// cross-shard-fraction curves over the shard-count axis, throughput in
// requests per microsecond of simulated fleet time, with p50..p99.9
// request-latency tables (Latency is forced on — the tail is the point)
// and fleet verdicts in the notes.
func FleetFigure(o Options) (*Figure, error) {
	o = o.Defaults()
	o.Latency = true
	width := o.timelineWidth()
	fig := &Figure{
		Title:  "Fleet: sharded service tier, diurnal open-loop load, 1024 keys 50% lookups, batching 8/4096, 2PC cross-shard fraction",
		YLabel: "throughput (requests/usec of fleet time), simulated; x-axis is shard count",
	}
	axis := fleetShardAxis()
	scenarios := fleetScenarios()
	systems := tailSystems()
	crossFracs := []int{0, 10}
	var names []string
	var cells []runner.Cell[fleetPoint]
	for _, sb := range systems {
		for _, sc := range scenarios {
			for _, xf := range crossFracs {
				name := fmt.Sprintf("%s/%s", sb.Name, sc.name)
				if xf > 0 {
					name += fmt.Sprintf("+x%d", xf)
				}
				names = append(names, name)
				for _, shards := range axis {
					sb, sc, xf, shards := sb, sc, xf, shards
					cells = append(cells, runner.Cell[fleetPoint]{
						Spec: o.fleetSpec(sc, sb.Name, shards, xf, width),
						Compute: func() (fleetPoint, error) {
							return runFleet(o, sc, sb, shards, xf, width)
						},
					})
				}
			}
		}
	}
	pts, err := runner.RunCells(o.pool(), cells)
	if err != nil {
		return nil, err
	}
	na := len(axis)
	for ci, name := range names {
		curve := Curve{Name: name}
		for t := 0; t < na; t++ {
			curve.Points = append(curve.Points, pts[ci*na+t].Point)
		}
		fig.Curves = append(fig.Curves, curve)
	}
	// Judge the top-shard-count fleet of every curve. Everything derives
	// from the cached payloads, so notes are byte-stable across serial,
	// parallel and warm-cache executions.
	top := axis[na-1]
	for ci, name := range names {
		fp := pts[ci*na+na-1]
		pass, judged := 0, 0
		worstBurn := 0.0
		findings := 0
		for _, s := range fp.Series {
			for _, r := range timeseries.EvaluateSLOs(s, fleetSLOs()) {
				judged++
				if r.Pass {
					pass++
				}
				if r.BurnRate > worstBurn {
					worstBurn = r.BurnRate
				}
			}
			findings += len(timeseries.Detect(s))
		}
		maxOps, minOps := uint64(0), ^uint64(0)
		for _, ops := range fp.ShardOps {
			if ops > maxOps {
				maxOps = ops
			}
			if ops < minOps {
				minOps = ops
			}
		}
		if minOps == 0 {
			minOps = 1
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s @%dS: SLO %d/%d shards pass (worst burn %.2fx), imbalance %.2fx, %d findings, 2pc %d/%d commit/abort",
			name, top, pass, judged, worstBurn, float64(maxOps)/float64(minOps),
			findings, fp.Committed2PC, fp.Aborted2PC))
	}
	return fig, nil
}
