package bench

import (
	"bytes"
	"testing"

	"rocktm/internal/runner"
)

// renderAll renders a figure every way the CLI can emit it.
func renderAll(t *testing.T, fig *Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	fig.Render(&buf)
	fig.CSV(&buf)
	if err := fig.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Determinism regression: a parallel sweep (8 workers) must produce
// byte-identical Figure/CSV/JSON output to the serial one, and a
// warm-cache rerun must reproduce the exact same bytes again.
func TestParallelMatchesSerialByteForByte(t *testing.T) {
	o := Options{Threads: []int{1, 2, 3}, OpsPerThread: 80, Seed: 1}

	serialFig, err := Fig2a(o) // o.Runner == nil: one worker, no cache
	if err != nil {
		t.Fatal(err)
	}
	serial := renderAll(t, serialFig)

	cache, err := runner.OpenCache(t.TempDir(), runner.CacheVersion)
	if err != nil {
		t.Fatal(err)
	}
	po := o
	po.Runner = &runner.Pool{Workers: 8, Cache: cache}
	parallelFig, err := Fig2a(po)
	if err != nil {
		t.Fatal(err)
	}
	if parallel := renderAll(t, parallelFig); !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}

	cachedFig, err := Fig2a(po) // every cell now hits the cache
	if err != nil {
		t.Fatal(err)
	}
	if cached := renderAll(t, cachedFig); !bytes.Equal(serial, cached) {
		t.Fatalf("warm-cache output differs from serial:\n--- serial ---\n%s\n--- cached ---\n%s", serial, cached)
	}
	for _, w := range cache.Warnings() {
		t.Errorf("unexpected cache warning: %s", w)
	}
}

// The attribution report takes the same parallel path; its rows (uint64
// counters, float rates, CPS histograms) must survive the cache's JSON
// round trip bit-for-bit too.
func TestAttribParallelMatchesSerial(t *testing.T) {
	o := Options{Threads: []int{1, 2}, OpsPerThread: 60, Seed: 1}
	serialRep, err := AttributionReport(o)
	if err != nil {
		t.Fatal(err)
	}
	var serial bytes.Buffer
	serialRep.Render(&serial)
	serialRep.CSV(&serial)

	cache, err := runner.OpenCache(t.TempDir(), runner.CacheVersion)
	if err != nil {
		t.Fatal(err)
	}
	po := o
	po.Runner = &runner.Pool{Workers: 4, Cache: cache}
	for pass, label := range []string{"parallel", "warm-cache"} {
		rep, err := AttributionReport(po)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		rep.Render(&got)
		rep.CSV(&got)
		if !bytes.Equal(serial.Bytes(), got.Bytes()) {
			t.Fatalf("pass %d (%s) attrib output differs from serial", pass, label)
		}
	}
}

// MSF figures route through the same orchestrator via Options.Runner.
func TestMSFSweepParallelMatchesSerial(t *testing.T) {
	o := Options{MSFDim: 12, Threads: []int{1, 2}, Seed: 1}
	serialFig, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	serial := renderAll(t, serialFig)

	cache, err := runner.OpenCache(t.TempDir(), runner.CacheVersion)
	if err != nil {
		t.Fatal(err)
	}
	o.Runner = &runner.Pool{Workers: 4, Cache: cache}
	for pass := 0; pass < 2; pass++ { // cold parallel, then warm cache
		fig, err := Fig4(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(t, fig); !bytes.Equal(serial, got) {
			t.Fatalf("pass %d MSF output differs from serial", pass)
		}
	}
}

// A failing cell must not poison its neighbours: the pool completes the
// sweep, caches the successes, and surfaces the failure.
func TestPoolIsolatesFailingCellAcrossBench(t *testing.T) {
	cells := []runner.Cell[Point]{
		{Spec: runner.Spec{Experiment: "t", System: "ok1", Threads: 1},
			Compute: func() (Point, error) { return Point{Threads: 1, OpsPerUsec: 1}, nil }},
		{Spec: runner.Spec{Experiment: "t", System: "boom", Threads: 2},
			Compute: func() (Point, error) { panic("cell wedged") }},
		{Spec: runner.Spec{Experiment: "t", System: "ok2", Threads: 3},
			Compute: func() (Point, error) { return Point{Threads: 3, OpsPerUsec: 3}, nil }},
	}
	_, err := runner.RunCells(&runner.Pool{Workers: 2}, cells)
	if err == nil {
		t.Fatal("expected the wedged cell's error to surface")
	}
}
