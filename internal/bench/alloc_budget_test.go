package bench

import (
	"runtime"
	"testing"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// fig2aCellAllocBudget is the allocation budget for one BenchmarkFig2aCell
// iteration, which reads ~837 allocs/op (~1,403 when each machine
// allocated its own strands). Machine.Recycle hands every strand, with its
// caches, TLBs and predictor, the page tables, the memory frames a cell
// touched and its L2 to pools that the next cell draws from, so what
// remains is each strand's coroutine, the machine's own small structs,
// workload compilation and JSON digests. The budget pins that with ~5%
// headroom: a change that quietly reintroduces per-operation or
// per-attempt allocation on the cell path fails here long before it is
// visible in wall-clock.
const fig2aCellAllocBudget = 880

// TestFig2aCellAllocBudget runs the cell benchmark through the testing
// harness and fails if allocs/op regresses above the budget. It complements
// the strict alloc-free pins on the obs recorders (internal/obs): the cell
// necessarily allocates — it builds whole machines — so it gets a budget
// rather than a zero.
func TestFig2aCellAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs full benchmark iterations")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := Options{Threads: []int{4}, OpsPerThread: 300, Seed: 1}
			if _, err := Fig2a(o); err != nil {
				b.Fatal(err)
			}
		}
	})
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if allocs := res.AllocsPerOp(); allocs > fig2aCellAllocBudget {
		t.Errorf("fig2a cell allocates %d allocs/op, budget is %d — a hot-path allocation crept back in",
			allocs, fig2aCellAllocBudget)
	}
}

// fig2aPassBytesBudget caps the bytes that one fig2a pass allocates when
// it starts from empty pools, as the benchmark's rbtree-read workload runs
// it (`figures -exp fig2a -ops 1000`: 48 cells over eight thread counts).
// It reads ~1.28 MB; when each machine allocated its own strands and page
// tables, it read ~12.0 MB and ran three GC cycles. The budget stays well
// under the Go GC's 4 MB minimum heap goal: a pass that keeps to it runs
// no GC cycle, so its peak RSS stays near the process floor.
const fig2aPassBytesBudget = 3 << 19 // 1.5 MB

// TestFig2aPassBytesBudget runs one fig2a pass after two GC cycles have
// emptied every pool, and fails if it allocates more than the budget.
func TestFig2aPassBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs a whole fig2a pass")
	}
	runtime.GC()
	runtime.GC() // the second cycle drops the pools' victim caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Fig2a(Options{OpsPerThread: 1000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > fig2aPassBytesBudget {
		t.Errorf("a fig2a pass allocates %d bytes, budget is %d — machine construction allocates again",
			got, fig2aPassBytesBudget)
	}
}

// fleetCellAllocBudget is the allocation budget for one BenchmarkFleetCell
// iteration, which reads ~305 allocs/op: the shard machines' own structs,
// coroutines and sessions, the TM systems and the result. Requests ride
// inline in their shard's batch queue, the batch and 2PC bodies are bound
// once per fleet, and the latency histograms come from obs's pool; when
// each request, batch and leg allocated its own storage the cell read
// ~3,702 (~3,947 when each machine allocated its own strands and page
// tables, ~16,360 when every Run started a fresh coroutine per strand).
// The budget, ~5% over the reading, catches per-request, per-batch or
// per-Run allocation creeping back in.
const fleetCellAllocBudget = 320

// TestFleetCellAllocBudget runs BenchmarkFleetCell through the testing
// harness and fails if allocs/op regresses above the budget.
func TestFleetCellAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs full benchmark iterations")
	}
	res := testing.Benchmark(BenchmarkFleetCell)
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if allocs := res.AllocsPerOp(); allocs > fleetCellAllocBudget {
		t.Errorf("fleet cell allocates %d allocs/op, budget is %d — per-request or per-Run allocation crept back in",
			allocs, fleetCellAllocBudget)
	}
}

// fleetPassAllocBudget caps the objects one fleet pass allocates when it
// starts from empty pools, as the benchmark's fleet workload runs it
// (`figures -exp fleet -ops 500`: 72 cells, 84,000 requests). It reads
// ~32,600 objects (6.0–6.3 MB, two GC cycles); when each request, batch, 2PC
// leg and latency histogram allocated its own storage it read ~422,800
// (33.5 MB, 15 GC cycles). The budget is ~10% over the reading, so one
// allocation per request fails it.
const fleetPassAllocBudget = 36000

// TestFleetPassAllocBudget runs one fleet pass after two GC cycles have
// emptied every pool, and fails if it allocates more objects than the
// budget.
func TestFleetPassAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs a whole fleet pass")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	runtime.GC()
	runtime.GC() // the second cycle drops the pools' victim caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := FleetFigure(Options{OpsPerThread: 500, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > fleetPassAllocBudget {
		t.Errorf("a fleet pass allocates %d objects, budget is %d — the service tier allocates per request again",
			got, fleetPassAllocBudget)
	}
}

// warmCellAllocBudget is the allocation budget per cell of one
// BenchmarkWarmRerender pass, which reads ~77 allocs per cell: building
// the cell's spec, reading and decoding its cache entry once, and its
// share of rendering. When a hit decoded its entry twice and every spec
// printed its machine config, the pass read ~169 per cell. The budget
// catches a second decode, or a per-cell digest, creeping back in.
const warmCellAllocBudget = 100

// TestWarmRerenderAllocBudget runs BenchmarkWarmRerender's pass through
// the testing harness and fails if its allocations per served cell
// regress above the budget.
func TestWarmRerenderAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs full benchmark iterations")
	}
	pass, cells, err := warmRerender(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var passErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N && passErr == nil; i++ {
			passErr = pass()
		}
	})
	if passErr != nil {
		t.Fatal(passErr)
	}
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if allocs := res.AllocsPerOp() / int64(cells); allocs > warmCellAllocBudget {
		t.Errorf("warm rerender allocates %d allocs per cached cell, budget is %d — a hit decodes or digests more than once again",
			allocs, warmCellAllocBudget)
	}
}
