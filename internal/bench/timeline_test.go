package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rocktm/internal/obs"
	"rocktm/internal/obs/timeseries"
	"rocktm/internal/runner"
	"rocktm/internal/workload"
)

// The zero-perturbation contract extended to windowed capture: attaching
// the timeseries recorder (event sink + latency sink) and the event tracer
// together must leave the measured point bit-identical — same throughput,
// same notes, same latency digest — while producing a non-empty window
// series whose op count reconciles with the run, and one trace per run.
func TestTimelineCaptureDoesNotPerturb(t *testing.T) {
	o := Options{Threads: []int{2}, OpsPerThread: 120, Seed: 1, Latency: true}.Defaults()
	traced := o
	traced.Trace = &obs.TraceSink{}
	st := timelineStructures()[1] // rbtree: exercises tx, fallback and lock hooks
	cfg := st.cfg
	cfg.keys = workload.Zipfian(cfg.keyRange, 0.99)
	for i, sb := range tailSystems() {
		plain, _, err := runKVSeries(o, "t", cfg, sb, 2, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := traced.Trace.Events()
		captured, series, err := runKVSeries(traced, "t", cfg, sb, 2, true, timeseries.MinWidth)
		if err != nil {
			t.Fatal(err)
		}
		if traced.Trace.Runs() != i+1 || traced.Trace.Events() == before {
			t.Errorf("%s: trace sink holds %d runs (want %d) and gained %d events (want some)",
				sb.Name, traced.Trace.Runs(), i+1, traced.Trace.Events()-before)
		}
		pb, _ := json.Marshal(plain)
		cb, _ := json.Marshal(captured)
		if !bytes.Equal(pb, cb) {
			t.Errorf("%s: windowed capture changed the measurement:\n%s\n%s", sb.Name, pb, cb)
		}
		if len(series.Windows) == 0 {
			t.Fatalf("%s: capture produced an empty series", sb.Name)
		}
		var ops uint64
		for _, w := range series.Windows {
			ops += w.Ops
		}
		if want := uint64(2 * o.OpsPerThread); ops != want {
			t.Errorf("%s: series holds %d ops across windows, want %d", sb.Name, ops, want)
		}
	}
}

// The timeline figure rides the runner like every other experiment: the
// series lives inside the cell payload, so serial, 8-worker parallel and
// warm-cache executions must render byte-identically — including the
// detector findings and SLO verdicts in the notes.
func TestTimelineParallelMatchesSerialByteForByte(t *testing.T) {
	o := Options{Threads: []int{1, 2}, OpsPerThread: 80, Seed: 1}

	serialFig, err := TimelineFigure(o) // o.Runner == nil: inline serial path
	if err != nil {
		t.Fatal(err)
	}
	serial := renderAll(t, serialFig)

	cache, err := runner.OpenCache(t.TempDir(), runner.CacheVersion)
	if err != nil {
		t.Fatal(err)
	}
	po := o
	po.Runner = &runner.Pool{Workers: 8, Cache: cache, Costs: runner.NewCostModel()}
	for pass, label := range []string{"parallel", "warm-cache"} {
		fig, err := TimelineFigure(po)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(t, fig); !bytes.Equal(serial, got) {
			t.Fatalf("pass %d (%s) timeline output differs from serial:\n--- serial ---\n%s\n--- got ---\n%s",
				pass, label, serial, got)
		}
	}
	for _, w := range cache.Warnings() {
		t.Errorf("unexpected cache warning: %s", w)
	}
}

// Every curve is judged in the notes: either "no pathologies detected"
// or concrete findings, plus one SLO verdict per declared objective.
func TestTimelineFigureJudgesEveryCurve(t *testing.T) {
	o := Options{Threads: []int{1, 2}, OpsPerThread: 80, Seed: 1}
	fig, err := TimelineFigure(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 8 {
		t.Fatalf("got %d curves, want 8 (2 structures x 4 systems)", len(fig.Curves))
	}
	notes := strings.Join(fig.Notes, "\n")
	for _, c := range fig.Curves {
		if !strings.Contains(notes, c.Name+" @2T:") {
			t.Errorf("curve %s has no note at the top thread count", c.Name)
		}
	}
	for _, want := range []string{"SLO ht-tail", "SLO rbtree-tail", "windows"} {
		if !strings.Contains(notes, want) {
			t.Errorf("notes missing %q:\n%s", want, notes)
		}
	}
	if !fig.hasLatency() {
		t.Error("timeline figure must always carry latency digests")
	}
}

// The acceptance scenario from EXPERIMENTS.md E24: at the E23 sweep's
// contended corner (rbtree, zipf 0.99, 16 threads) the detector names
// PhTM's phase-flip drain with a concrete window range, and the declared
// SLO fails with a finite burn rate.
func TestTimelineDetectsPhaseFlipDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("16-thread contended sweep; skipped with -short")
	}
	o := Options{Threads: []int{16}, OpsPerThread: 1000, Seed: 1, Latency: true}.Defaults()
	st := timelineStructures()[1] // rbtree
	cfg := st.cfg
	cfg.keys = workload.Zipfian(cfg.keyRange, 0.99)
	phtm := tailSystems()[0]
	if phtm.Name != "phtm" {
		t.Fatalf("system order changed: %q", phtm.Name)
	}
	_, series, err := runKVSeries(o, "e24", cfg, phtm, 16, true, timeseries.DefaultWidth)
	if err != nil {
		t.Fatal(err)
	}
	findings := timeseries.Detect(series)
	var drain *timeseries.Finding
	for i := range findings {
		if findings[i].Kind == timeseries.KindPhaseFlipDrain {
			drain = &findings[i]
			break
		}
	}
	if drain == nil {
		t.Fatalf("no phase-flip drain detected over %d windows", len(series.Windows))
	}
	if drain.FirstWindow < 0 || drain.LastWindow < drain.FirstWindow ||
		drain.EndCycle <= drain.StartCycle {
		t.Errorf("finding has no concrete window range: %+v", drain)
	}
	if drain.Severity < 1 {
		t.Errorf("severity %v below threshold-normalized 1.0", drain.Severity)
	}
	res := timeseries.EvaluateSLOs(series, timelineSLOs("rbtree"))
	if len(res) != 1 {
		t.Fatalf("want 1 SLO verdict, got %d", len(res))
	}
	if r := res[0]; r.Pass || r.BurnRate <= 1 || r.WorstWindow < 0 {
		t.Errorf("contended PhTM run should burn its tail budget: %+v", r)
	}
}
