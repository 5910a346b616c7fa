package service

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/locktm"
	"rocktm/internal/phtm"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/workload"
)

func testLoad(requests int, crossPct int) LoadSpec {
	return LoadSpec{
		Requests:  requests,
		PctLookup: 50,
		Keys:      workload.Zipfian(128, 0.99),
		Arrival:   workload.Arrival{MeanGap: 400, Seed: 3},
		CrossPct:  crossPct,
		Seed:      11,
	}
}

// Two fleets built from the same Config and offered the same LoadSpec
// must produce byte-identical results — the property that lets fleet
// cells ride the runner cache.
func TestFleetDeterministic(t *testing.T) {
	run := func() Result {
		f := testFleet(t, 2, nil, sim.FaultPlan{}, nil)
		res, err := f.Run(testLoad(200, 20))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, _ := json.Marshal(run())
	b, _ := json.Marshal(run())
	if string(a) != string(b) {
		t.Fatalf("fleet run not deterministic:\n%s\n%s", a, b)
	}
}

// Every request completes, per-shard ops sum to the request count, and
// the fleet is quiescent (no lock owners) after the run.
func TestFleetRunCompletes(t *testing.T) {
	f := testFleet(t, 3, nil, sim.FaultPlan{}, nil)
	res, err := f.Run(testLoad(300, 25))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Requests != 300 {
		t.Fatalf("Requests = %d, want 300", res.Requests)
	}
	var sum uint64
	for _, sh := range res.Shards {
		sum += sh.Ops
	}
	if sum != 300 {
		t.Fatalf("per-shard ops sum to %d, want 300", sum)
	}
	if res.Lat.P50 <= 0 || res.Lat.P999 < res.Lat.P50 {
		t.Fatalf("implausible latency summary: %+v", res.Lat)
	}
	if res.ElapsedCycles <= 0 || res.Seconds <= 0 {
		t.Fatalf("implausible elapsed: %d cycles, %g s", res.ElapsedCycles, res.Seconds)
	}
	if res.Committed2PC == 0 {
		t.Fatal("25%% cross-shard load committed no 2PC transactions")
	}
	for i := 0; i < f.Shards(); i++ {
		if owners := f.LockOwners(i); len(owners) != 0 {
			t.Fatalf("shard %d not quiescent after run: %v", i, owners)
		}
	}
	if len(res.Series) != 3 {
		t.Fatalf("Series count = %d, want 3", len(res.Series))
	}
}

// Changing the cross-shard fraction must not perturb the primary op/key
// stream: the single-op legs of a CrossPct>0 run are the same ops, in
// the same arrival order, as the CrossPct=0 run (stream separation).
func TestCrossFractionDoesNotPerturbPrimaryStream(t *testing.T) {
	trace := func(crossPct int) []Op {
		load := testLoad(100, crossPct)
		c, err := workload.KVSpec(load.Keys, load.PctLookup).Compile()
		if err != nil {
			t.Fatal(err)
		}
		src := c.Source(load.Seed, load.Arrival)
		var ops []Op
		for i := 0; i < load.Requests; i++ {
			src.NextArrival()
			opIdx, key := src.Next()
			ops = append(ops, Op{Kind: opKindOf(opIdx), Key: key})
			if crossPct > 0 && src.ExtraRoll(100) < crossPct {
				src.ExtraKey()
			}
		}
		return ops
	}
	a, b := trace(0), trace(40)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("primary stream diverged at request %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// The batch deadline bounds queueing: with a sparse arrival process a
// shard must not sit on a pending request past MaxDelay, so worst-case
// latency stays near MaxDelay plus service time, not near the arrival
// gap.
func TestBatchDeadlineBoundsLatency(t *testing.T) {
	build := func(maxDelay int64) *Fleet {
		f, err := New(Config{
			Shards:   2,
			Strands:  2,
			KeyRange: 128,
			Buckets:  1 << 7,
			MemWords: 1 << 17,
			Seed:     7,
			System:   func(m *sim.Machine) core.System { return locktm.NewOneLock(m) },
			Batch:    BatchConfig{MaxSize: 64, MaxDelay: maxDelay},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	load := LoadSpec{
		Requests:  64,
		PctLookup: 100,
		Keys:      workload.Uniform(128),
		Arrival:   workload.Arrival{MeanGap: 20000, Seed: 5},
		Seed:      9,
	}
	tight, err := build(1000).Run(load)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := build(100000).Run(load)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Lat.Max >= loose.Lat.Max {
		t.Fatalf("tight deadline max latency %d not below loose %d", tight.Lat.Max, loose.Lat.Max)
	}
	// With gaps (mean 20k) far above the 1k deadline, batches are mostly
	// singletons: no request should wait much past deadline + service.
	if tight.Lat.Max > 1000+5000 {
		t.Fatalf("tight-deadline max latency %d way past deadline+service", tight.Lat.Max)
	}
}

// Every cross-shard transaction rolls its coordinator crash, whichever
// way its batch closed: with CoordFailPct 100, sparse arrivals and a tight
// batch deadline, nearly every batch closes on its deadline, and every
// transaction must abort. Deadline-flushed batches used to skip the roll,
// so all but the last batch's transactions committed.
func TestDeadlineFlushRollsCoordinatorCrash(t *testing.T) {
	f, err := New(Config{
		Shards:       2,
		Strands:      2,
		KeyRange:     128,
		Buckets:      1 << 7,
		MemWords:     1 << 17,
		Seed:         7,
		System:       func(m *sim.Machine) core.System { return locktm.NewOneLock(m) },
		Batch:        BatchConfig{MaxSize: 64, MaxDelay: 1000},
		CoordFailPct: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(LoadSpec{
		Requests:  40,
		PctLookup: 50,
		Keys:      workload.Uniform(128),
		Arrival:   workload.Arrival{MeanGap: 20000, Seed: 5},
		CrossPct:  100,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed2PC != 0 || res.Aborted2PC != 40 {
		t.Fatalf("2PC commit/abort %d/%d, want 0/40: every coordinator crashes", res.Committed2PC, res.Aborted2PC)
	}
}

// Under heavy zipfian skew the plain hash router leaves each hot key
// wholly on one shard while the hot-aware router spreads the hottest ones:
// the max/min per-shard op imbalance must be strictly worse for hash than
// for hot.
func TestHotAwareReducesImbalance(t *testing.T) {
	imbalance := func(name string) float64 {
		router, err := NewRouter(name, 4, 128)
		if err != nil {
			t.Fatal(err)
		}
		f := testFleet(t, 4, router, sim.FaultPlan{}, nil)
		res, err := f.Run(LoadSpec{
			Requests:  400,
			PctLookup: 90,
			Keys:      workload.Zipfian(128, 0.99),
			Arrival:   workload.Arrival{MeanGap: 200, Seed: 3},
			Seed:      11,
		})
		if err != nil {
			t.Fatal(err)
		}
		max, min := uint64(0), ^uint64(0)
		for _, sh := range res.Shards {
			if sh.Ops > max {
				max = sh.Ops
			}
			if sh.Ops < min {
				min = sh.Ops
			}
		}
		if min == 0 {
			min = 1
		}
		return float64(max) / float64(min)
	}
	hash, hot := imbalance("hash"), imbalance("hot")
	if hot >= hash {
		t.Fatalf("hot-aware imbalance %.2f not below hash imbalance %.2f", hot, hash)
	}
}

// Config validation rejects nonsense.
func TestFleetConfigValidation(t *testing.T) {
	base := Config{
		Shards:   2,
		KeyRange: 64,
		System:   func(m *sim.Machine) core.System { return locktm.NewOneLock(m) },
	}
	// Every bad config returns an error, and none panics.
	for name, mutate := range map[string]func(*Config){
		"Shards=0":              func(c *Config) { c.Shards = 0 },
		"KeyRange=0":            func(c *Config) { c.KeyRange = 0 },
		"nil System":            func(c *Config) { c.System = nil },
		"router/shard mismatch": func(c *Config) { c.Router = NewHashMap(3) },
		"Strands=65":            func(c *Config) { c.Strands = 65 },
		"Strands=-1":            func(c *Config) { c.Strands = -1 },
		"Buckets=1000":          func(c *Config) { c.Buckets = 1000 },
		"Buckets=-8":            func(c *Config) { c.Buckets = -8 },
		"MemWords=-1":           func(c *Config) { c.MemWords = -1 },
		"Faults.InterruptProb":  func(c *Config) { c.Faults.InterruptProb = 2 },
		"MemWords too small": func(c *Config) {
			c.KeyRange, c.MemWords = 1<<20, 1<<16
		},
	} {
		bad := base
		mutate(&bad)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: New panicked: %v", name, r)
				}
			}()
			if _, err := New(bad); err == nil {
				t.Errorf("%s accepted", name)
			}
		}()
	}
	// A shard whose memory cannot hold its tables is named in the error;
	// a panic that is not the memory's still propagates.
	small := base
	small.KeyRange, small.MemWords = 1<<20, 1<<16
	if _, err := New(small); err == nil || !strings.Contains(err.Error(), "shard 0") ||
		!strings.Contains(err.Error(), "out of simulated memory") {
		t.Errorf("MemWords too small: error %v, want shard 0 out of simulated memory", err)
	}
	func() {
		defer func() {
			if r := recover(); r != "system panicked" {
				t.Errorf("a System panic: New recovered %v, want it to propagate", r)
			}
		}()
		bad := base
		bad.System = func(*sim.Machine) core.System { panic("system panicked") }
		New(bad)
	}()
	f, err := New(base)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := f.Run(LoadSpec{Requests: 0, PctLookup: 50, Keys: workload.Uniform(64)}); err == nil {
		t.Error("Requests=0 accepted")
	}
	if _, err := f.Run(LoadSpec{Requests: 1, PctLookup: 50, Keys: workload.Uniform(64), CrossPct: 101}); err == nil {
		t.Error("CrossPct=101 accepted")
	}
	for _, a := range []workload.Arrival{
		{MeanGap: -1},
		workload.Diurnal(100, 1, 0, 0.5),
		{MeanGap: 100, Shape: workload.Shape(99)},
	} {
		if _, err := f.Run(LoadSpec{Requests: 1, PctLookup: 50, Keys: workload.Uniform(64), Arrival: a}); err == nil {
			t.Errorf("arrival %+v accepted", a)
		}
	}
}

// A fleet built from the pools an earlier fleet filled — the shard
// machines' strands, memory and L2 (sim.Machine.Recycle) and the fleet's,
// shards' and windows' latency histograms (Fleet.Recycle) — runs exactly
// as one built from drained pools: the same latency summaries, per-shard
// series, 2PC counts and merged stats. The runner's workers share the
// pools, so fleets that build, run and recycle concurrently must each
// run as the fresh one did too.
func TestRecycledFleetRunsLikeFresh(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		run := func() (Result, error) {
			f, err := New(Config{
				Shards:       shards,
				Strands:      4,
				KeyRange:     256,
				Buckets:      1 << 7,
				MemWords:     1 << 20,
				Seed:         5,
				System:       func(m *sim.Machine) core.System { return phtm.New(m, sky.New(m), phtm.DefaultConfig()) },
				CoordFailPct: 20,
				Faults:       sim.FaultProfile("inval"),
				Window:       4096,
			})
			if err != nil {
				return Result{}, err
			}
			defer f.Recycle()
			return f.Run(LoadSpec{
				Requests:  200 * shards,
				PctLookup: 50,
				Keys:      workload.Zipfian(256, 0.99),
				Arrival:   workload.Arrival{MeanGap: 600 / float64(shards), Seed: 3},
				CrossPct:  10,
				Seed:      11,
			})
		}
		runtime.GC()
		runtime.GC() // the second cycle drops the pools' victim caches
		fresh, err := run()
		if err != nil {
			t.Fatal(err)
		}
		recycled, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Committed2PC+fresh.Aborted2PC == 0 {
			t.Fatalf("%d shards: no cross-shard transaction ran", shards)
		}
		if !reflect.DeepEqual(recycled, fresh) {
			t.Errorf("%d shards: a fleet on recycled parts ran differently:\nfresh    %+v %d/%d %+v\nrecycled %+v %d/%d %+v",
				shards, fresh.Lat, fresh.Committed2PC, fresh.Aborted2PC, fresh.Shards,
				recycled.Lat, recycled.Committed2PC, recycled.Aborted2PC, recycled.Shards)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					if res, err := run(); err != nil || !reflect.DeepEqual(res, fresh) {
						t.Errorf("%d shards: a fleet run beside others ran differently (%v): %+v", shards, err, res.Lat)
					}
				}
			}()
		}
		wg.Wait()
	}
}
