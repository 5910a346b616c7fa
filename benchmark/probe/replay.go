package main

import (
	"runtime"
	"time"

	"rocktm/benchmark/stats"
	"rocktm/internal/core"
	"rocktm/internal/obs"
	"rocktm/internal/obs/timeseries"
	"rocktm/internal/service"
	"rocktm/internal/sim"
	"rocktm/internal/workload"
)

// tally accumulates one replay's host timings (per constructed object) and
// simulated counts (summed over cells).
type tally struct {
	newUS, newAllocs, newKB, recycleUS, kernelUS, tmUS []float64
	svcNewMS, svcRunMS                                 []float64

	constructNS, runNS, svcRunNS int64

	accesses, strandCycles, l1Misses, tlbWalks, txBegins, txAborts uint64
	tm                                                             core.Stats
	// hwOps and fallbacks count the blocks of systems that try hardware
	// transactions, and those of them that finished in software or a lock.
	hwOps, fallbacks                   uint64
	requests, committed2PC, aborted2PC uint64
}

// recycle donates a machine's or fleet's memory back to the pool when the
// type still offers that; the assertion keeps the probe compiling if the
// pool is removed.
func recycle(v any) {
	if r, ok := v.(interface{ Recycle() }); ok {
		r.Recycle()
	}
}

// addMachine folds a finished machine's strand counters into the tally.
func (t *tally) addMachine(m *sim.Machine) {
	for i := 0; i < m.Config().Strands; i++ {
		s := m.Strand(i)
		st := s.Stats()
		t.accesses += st.Loads + st.Stores + st.CASes
		t.l1Misses += st.L1Misses
		t.tlbWalks += st.TLBWalks
		t.txBegins += st.TxBegins
		t.txAborts += st.TxAborts
		t.strandCycles += uint64(s.Clock())
	}
}

// addStats folds a TM system's counters into the tally.
func (t *tally) addStats(st *core.Stats) {
	if st == nil {
		return
	}
	t.tm.Ops += st.Ops
	t.tm.HWAttempts += st.HWAttempts
	t.tm.HWCommits += st.HWCommits
	t.tm.HWBlocks += st.HWBlocks
	t.tm.SWCommits += st.SWCommits
	t.tm.SWAborts += st.SWAborts
	t.tm.LockAcquires += st.LockAcquires
	if st.HWAttempts > 0 {
		t.hwOps += st.Ops
		t.fallbacks += st.LockAcquires + st.SWCommits
	}
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runKV replays one key-value cell exactly as internal/bench's runKV does
// (machine, structure, system, workload driver, in that order) and times
// each construction step, the run and the recycle.
func runKV(t *tally, r kvRecipe, sb tmSystem, threads, ops int, seed uint64) float64 {
	cfg := sim.DefaultConfig(threads)
	cfg.MemWords = r.memWords
	cfg.Seed = seed
	cfg.MaxCycles = 1 << 46

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	m := sim.New(cfg)
	newDur := time.Since(t0)
	runtime.ReadMemStats(&after)

	t1 := time.Now()
	newSession := r.build(m, r.keyRange)
	t2 := time.Now()
	sys := sb.build(m)
	t3 := time.Now()
	keys := r.keys
	if keys.Dist == workload.KeyNone {
		keys = workload.Uniform(r.keyRange)
	}
	wl := workload.MustCompile(workload.KVSpec(keys, r.pctLookup))
	var lat *obs.LatencyRecorder
	if r.latency {
		lat = obs.NewLatencyRecorder()
	}
	m.Run(func(s *sim.Strand) {
		ses := newSession(sys, s)
		d := wl.Driver(s, lat)
		d.Run(ops, func(_, op int, key uint64) {
			switch op {
			case workload.OpLookup:
				ses.Lookup(key)
			case workload.OpInsert:
				ses.Insert(key, 1)
			default:
				ses.Delete(key)
			}
		})
	})
	runDur := time.Since(t3)
	res := workload.NewResult(uint64(threads*ops), m.ElapsedSeconds(), sys.Stats(), lat)
	t.addMachine(m)
	t.addStats(sys.Stats())
	t4 := time.Now()
	recycle(m)
	t.recycleUS = append(t.recycleUS, micros(time.Since(t4)))

	t.newUS = append(t.newUS, micros(newDur))
	t.newAllocs = append(t.newAllocs, float64(after.Mallocs-before.Mallocs))
	t.newKB = append(t.newKB, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	t.kernelUS = append(t.kernelUS, micros(t2.Sub(t1)))
	t.tmUS = append(t.tmUS, micros(t3.Sub(t2)))
	t.constructNS += (newDur + t3.Sub(t1)).Nanoseconds()
	t.runNS += runDur.Nanoseconds()
	return res.Throughput()
}

// runFleet replays one fleet cell exactly as internal/bench's runFleet
// does. The shard machines are built inside service.New, so only the TM
// systems are timed on their own; the system constructor also captures
// each machine for its counters.
func runFleet(t *tally, sc fleetScenario, sb tmSystem, shards, crossPct, ops int, seed uint64) (float64, error) {
	router, err := service.NewRouter(sc.router, shards, fleetKeyRange)
	if err != nil {
		return 0, err
	}
	var machines []*sim.Machine
	build := func(m *sim.Machine) core.System {
		machines = append(machines, m)
		start := time.Now()
		sys := sb.build(m)
		t.tmUS = append(t.tmUS, micros(time.Since(start)))
		return sys
	}
	t0 := time.Now()
	f, err := service.New(service.Config{
		Shards:       shards,
		Strands:      fleetStrands,
		KeyRange:     fleetKeyRange,
		Buckets:      fleetBuckets,
		MemWords:     fleetMemWords,
		Seed:         seed,
		System:       build,
		Router:       router,
		CoordFailPct: fleetFailPct,
		Window:       timeseries.DefaultWidth,
	})
	if err != nil {
		return 0, err
	}
	defer recycle(f)
	t1 := time.Now()
	res, err := f.Run(service.LoadSpec{
		Requests:  ops * shards,
		PctLookup: 50,
		Keys:      sc.keys,
		Arrival:   fleetArrival(shards),
		CrossPct:  crossPct,
		Seed:      seed,
	})
	if err != nil {
		return 0, err
	}
	runDur := time.Since(t1)
	newDur := t1.Sub(t0)
	t.svcNewMS = append(t.svcNewMS, float64(newDur.Nanoseconds())/1e6)
	t.svcRunMS = append(t.svcRunMS, float64(runDur.Nanoseconds())/1e6)
	t.constructNS += newDur.Nanoseconds()
	t.runNS += runDur.Nanoseconds()
	t.svcRunNS += runDur.Nanoseconds()
	for _, m := range machines {
		t.addMachine(m)
	}
	t.addStats(res.Stats)
	t.requests += res.Requests
	t.committed2PC += res.Committed2PC
	t.aborted2PC += res.Aborted2PC
	return res.Throughput(), nil
}

// ratio is num/den, or 0 when den is 0 (a layer the cells never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// kvMetrics are the layer metrics only a directly built machine yields.
func (t *tally) kvMetrics() map[string]float64 {
	return map[string]float64{
		"sim.new_us":      stats.Median(t.newUS),
		"sim.new_allocs":  stats.Median(t.newAllocs),
		"sim.new_kb":      stats.Median(t.newKB),
		"sim.recycle_us":  stats.Median(t.recycleUS),
		"kernel.build_us": stats.Median(t.kernelUS),
	}
}

// serviceMetrics are the layer metrics only fleet cells yield.
func (t *tally) serviceMetrics() map[string]float64 {
	return map[string]float64{
		"service.new_ms":              stats.Median(t.svcNewMS),
		"service.run_ms":              stats.Median(t.svcRunMS),
		"service.requests":            float64(t.requests),
		"service.host_us_per_request": ratio(float64(t.svcRunNS)/1e3, float64(t.requests)),
		"service.twopc_commit_ratio":  ratio(float64(t.committed2PC), float64(t.committed2PC+t.aborted2PC)),
	}
}

// commonMetrics are the layer metrics every replayed cell contributes to.
func (t *tally) commonMetrics() map[string]float64 {
	tm := t.tm
	return map[string]float64{
		"sim.construct_share":    ratio(float64(t.constructNS), float64(t.constructNS+t.runNS)),
		"tm.build_us":            stats.Median(t.tmUS),
		"tm.ops":                 float64(tm.Ops),
		"tm.hw_attempts":         float64(tm.HWAttempts),
		"tm.hw_commit_ratio":     ratio(float64(tm.HWCommits), float64(tm.HWAttempts)),
		"tm.retry_frac":          ratio(float64(tm.HWAttempts-tm.HWBlocks), float64(tm.HWAttempts)),
		"tm.fallback_frac":       ratio(float64(t.fallbacks), float64(t.hwOps)),
		"tm.sw_abort_ratio":      ratio(float64(tm.SWAborts), float64(tm.SWCommits+tm.SWAborts)),
		"sim.accesses":           float64(t.accesses),
		"sim.cycles":             float64(t.strandCycles),
		"sim.l1_miss_ratio":      ratio(float64(t.l1Misses), float64(t.accesses)),
		"sim.tlb_walks":          float64(t.tlbWalks),
		"sim.tx_begins":          float64(t.txBegins),
		"sim.tx_abort_ratio":     ratio(float64(t.txAborts), float64(t.txBegins)),
		"sim.host_ns_per_access": ratio(float64(t.runNS), float64(t.accesses)),
		"sim.host_ns_per_kcycle": ratio(float64(t.runNS), float64(t.strandCycles)/1e3),
	}
}
