package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// syntheticReport has, for every workload in the spec, ten passes and
// three set-ups whose samples spread by about 2%, scaled by factor.
func syntheticReport(spec benchSpec, factor map[string]float64) report {
	var rep report
	for i, w := range spec.Workloads {
		f := factor[w.Name]
		if f == 0 {
			f = 1
		}
		r := &workloadReport{Name: w.Name}
		for k := 0; k < 10; k++ {
			jitter := 1 + 0.004*float64(k%5)
			r.Passes = append(r.Passes, pass{usage: usage{
				WallS:     f * float64(i+1) * jitter,
				CPUS:      float64(i+1) * jitter,
				PeakRSSMB: 40 * jitter,
			}})
		}
		r.SetupS = []float64{2.0, 2.04, 2.02}
		rep.Workloads = append(rep.Workloads, r)
	}
	return rep
}

func writeReport(t *testing.T, rep report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareSelfTest is the comparison's self-test: an identical pair
// passes, and wall_s on one workload slowed by one and a half times its
// bound fails on exactly that pair.
func TestCompareSelfTest(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	base := writeReport(t, syntheticReport(spec, nil))
	if code := compareMain(spec, []string{base, base}, io.Discard); code != 0 {
		t.Fatalf("identical reports: exit %d, want 0", code)
	}
	if code := compareMain(spec, []string{base + "," + base, base}, io.Discard); code != 0 {
		t.Fatalf("pooled identical reports: exit %d, want 0", code)
	}

	var bound float64
	for _, m := range spec.EndToEnd {
		if m.Name == "wall_s" {
			bound = m.Bound
		}
	}
	slow := spec.Workloads[1].Name
	worse := syntheticReport(spec, map[string]float64{slow: 1 + 1.5*bound})
	if code := compareMain(spec, []string{base, writeReport(t, worse)}, io.Discard); code != 1 {
		t.Fatalf("wall_s %.0f%% slower on %s: exit %d, want 1", 150*bound, slow, code)
	}
	for _, v := range compare(spec, syntheticReport(spec, nil), worse, io.Discard) {
		wantWorse := v.workload == slow && v.metric == "wall_s"
		if (v.result == "worse") != wantWorse || v.result == "unresolved" {
			t.Errorf("%s %s: %s (change %+.3f, spread %.3f)", v.workload, v.metric, v.result, v.change, v.spread)
		}
	}
}

func TestJudgeUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	m := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	noisy := []float64{1, 1.3, 0.8, 1.2, 0.9}
	if v := judge(m, noisy, noisy); v.result != "unresolved" {
		t.Fatalf("noisy pair: %s, want unresolved", v.result)
	}
	faster := []float64{0.5, 0.6, 0.55, 0.7, 0.65}
	if v := judge(m, noisy, faster); v.result != "better" {
		t.Fatalf("every new sample faster: %s, want better", v.result)
	}
}
