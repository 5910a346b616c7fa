package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHarnessNamesNoStepDriver keeps the benchmark on the APIs the
// repository means to keep: the stepped strand driver, its scheduler
// switch and the generated kernel specializations may be deleted without
// touching the benchmark.
func TestHarnessNamesNoStepDriver(t *testing.T) {
	forbidden := []string{"RunStepped", "StepFn", "CanRunStepped", "core.Step", "OpLog", ".Sched", "SchedStep", "SchedCoroutine", "internal/ctxgen"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range forbidden {
			if strings.Contains(string(src), name) {
				t.Errorf("%s names %s", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadsMatchSpec checks that BENCHMARK.json and workloads.go agree
// on the workloads and that every end-to-end metric has samples.
func TestWorkloadsMatchSpec(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, workloads.go %q", i, w.Name, workloads[i].name)
		}
	}
	r := &workloadReport{Passes: []pass{{usage: usage{1, 1, 1}}}, SetupS: []float64{1}}
	for _, m := range spec.EndToEnd {
		if len(r.samples(m.Name)) == 0 {
			t.Errorf("end-to-end metric %s has no samples", m.Name)
		}
	}
}
