package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rocktm/internal/bench"
)

// TestReplayMatchesBench pins the copied recipes: every cell the probe
// replays must reproduce internal/bench's figure point bit for bit.
func TestReplayMatchesBench(t *testing.T) {
	const ops, seed = 20, 3
	for exp, render := range map[string]func(bench.Options) (*bench.Figure, error){
		"fig2a": bench.Fig2a,
		"fig2b": bench.Fig2b,
		"tail":  bench.TailFigure,
		"fleet": bench.FleetFigure,
	} {
		t.Run(exp, func(t *testing.T) {
			fig, err := render(bench.Options{OpsPerThread: ops, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			cells, err := experimentCells(exp, ops, seed)
			if err != nil {
				t.Fatal(err)
			}
			var tl tally
			got, err := replay(&tl, cells)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, c := range got.Curves {
				for _, p := range c.Points {
					want, ok := fig.ValueAt(c.Name, p.Threads)
					if !ok || p.OpsPerUsec != want {
						t.Errorf("%s@%d: replay %v, bench %v (present %v)", c.Name, p.Threads, p.OpsPerUsec, want, ok)
					}
					n++
				}
			}
			if want := len(fig.Curves) * len(fig.Curves[0].Points); n != want {
				t.Errorf("replayed %d points, bench has %d", n, want)
			}
			if tl.accesses == 0 || tl.tm.Ops == 0 {
				t.Errorf("tally counted %d accesses, %d operations", tl.accesses, tl.tm.Ops)
			}
		})
	}
}

func TestMicroProbesAtTinyN(t *testing.T) {
	for _, p := range microProbes() {
		if v := p.run(50); math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Errorf("%s: %v", p.name, v)
		}
	}
}

// TestProbeReportsItsPerLayerMetrics checks that the probe reports exactly
// the per-layer metrics of BENCHMARK.json that the benchmark does not take
// from the traced pass (runtime.*, runner.*, trace.*).
func TestProbeReportsItsPerLayerMetrics(t *testing.T) {
	out, err := probe([]string{"fig2a"}, 5, 1, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 1 || len(out.Figures[0].Curves) != len(tmSystems()) {
		t.Fatalf("replay of fig2a: %+v", out.Figures)
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, m := range spec.PerLayer {
		if !strings.HasPrefix(m.Name, "runtime.") && !strings.HasPrefix(m.Name, "runner.") && !strings.HasPrefix(m.Name, "trace.") {
			want[m.Name] = true
		}
	}
	for name := range out.Metrics {
		if !want[name] {
			t.Errorf("probe reports %s, which BENCHMARK.json does not list", name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("probe does not report %s", name)
	}
}

func TestUnknownExperimentIsAnError(t *testing.T) {
	if _, err := experimentCells("fig9z", 10, 1); err == nil {
		t.Fatal("no error for an experiment without a recipe")
	}
}
