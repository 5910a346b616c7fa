package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"rocktm/benchmark/stats"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names, units, directions and bounds, which it does not repeat.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches the spec's units to the named values, in spec order.
func withUnits(specs []metricSpec, values map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, m := range specs {
		out[m.Name] = metric{values[m.Name], m.Unit}
	}
	return out
}

// report is the -json record of one benchmark run.
type report struct {
	Commit    string            `json:"commit"`
	Go        string            `json:"go"`
	NProc     int               `json:"nproc"`
	CPU       string            `json:"cpu"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Workloads []*workloadReport `json:"workloads"`
}

// workloadReport is one workload's samples, checks and metrics.
type workloadReport struct {
	Name   string    `json:"name"`
	Args   []string  `json:"args"`
	SetupS []float64 `json:"setup_s_samples"`
	// Passes are the untraced timed passes; only they feed end-to-end
	// metrics.
	Passes     []pass            `json:"passes"`
	TracedPass *pass             `json:"traced_pass,omitempty"`
	Attempted  int               `json:"cells_attempted"`
	Failed     int               `json:"cells_failed"`
	Problems   []string          `json:"problems,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`

	perLayerValues map[string]float64 // filled by the traced run
}

// samples returns the per-pass (or per-set-up) samples of an end-to-end
// metric.
func (r *workloadReport) samples(name string) []float64 {
	if name == "setup_s" {
		return r.SetupS
	}
	var xs []float64
	for _, p := range r.Passes {
		switch name {
		case "wall_s":
			xs = append(xs, p.WallS)
		case "cpu_s":
			xs = append(xs, p.CPUS)
		case "peak_rss_mb":
			xs = append(xs, p.PeakRSSMB)
		}
	}
	return xs
}

// reduce turns a metric's samples into its reported value. The host is
// shared and other tenants' load only ever slows a pass down, by tens of
// percent and for minutes at a time, so a pass's time is its own cost plus
// one-sided noise: the fastest pass estimates the cost far more steadily
// than the median (see README.md for the measurements). Memory and the
// few set-ups report their median.
func reduce(name string, xs []float64) float64 {
	if (name == "wall_s" || name == "cpu_s") && len(xs) > 0 {
		return slices.Min(xs)
	}
	return stats.Median(xs)
}

// verdict judges one metric × workload pair of two runs.
type verdict struct {
	workload, metric string
	old, cur         float64
	change, spread   float64
	result           string // better, same, worse or unresolved
}

// judge compares the samples of one end-to-end metric. change is the
// worsening of the reported value as a share of the old one (negative when
// it improved). The pair is unresolved when either side's pass spread is
// wider than the bound, unless every new sample beats (or trails) every
// old one.
func judge(m metricSpec, old, cur []float64) verdict {
	v := verdict{metric: m.Name, old: reduce(m.Name, old), cur: reduce(m.Name, cur)}
	v.spread = max(stats.Spread(old), stats.Spread(cur))
	if v.old != 0 {
		v.change = (v.cur - v.old) / v.old
	}
	worse := func(a, b float64) bool { return a > b } // a is worse than b
	if m.Better == "higher" {
		v.change = -v.change
		worse = func(a, b float64) bool { return a < b }
	}
	switch {
	case len(old) == 0 || len(cur) == 0:
		v.result = "unresolved"
	case v.spread > m.Bound:
		v.result = "unresolved"
		if all(cur, old, worse) {
			v.result = "worse"
		} else if all(old, cur, worse) {
			v.result = "better"
		}
	case v.change > m.Bound:
		v.result = "worse"
	case v.change < -m.Bound:
		v.result = "better"
	default:
		v.result = "same"
	}
	return v
}

// all reports whether rel(a, b) holds for every a in as and b in bs.
func all(as, bs []float64, rel func(a, b float64) bool) bool {
	for _, a := range as {
		for _, b := range bs {
			if !rel(a, b) {
				return false
			}
		}
	}
	return true
}

// compare judges every end-to-end metric of every workload the two
// reports share, prints one line per pair and returns the verdicts.
func compare(spec benchSpec, old, cur report, w io.Writer) []verdict {
	byName := map[string]*workloadReport{}
	for _, r := range cur.Workloads {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "%-14s %-12s %12s %12s %8s %8s  %s\n", "workload", "metric", "old", "new", "change", "spread", "verdict")
	var out []verdict
	for _, o := range old.Workloads {
		n, ok := byName[o.Name]
		if !ok {
			continue
		}
		for _, m := range spec.EndToEnd {
			v := judge(m, o.samples(m.Name), n.samples(m.Name))
			v.workload = o.Name
			out = append(out, v)
			fmt.Fprintf(w, "%-14s %-12s %12.5g %12.5g %+7.1f%% %7.1f%%  %s (bound %.0f%%)\n",
				v.workload, v.metric, v.old, v.cur, 100*v.change, 100*v.spread, v.result, 100*m.Bound)
		}
	}
	return out
}

// readReports reads a comma-separated list of -json reports and pools
// them: a workload's passes and set-ups from every file become the samples
// of one side. Three set-ups are too few to judge setup_s on, so compare
// several runs a side.
func readReports(list string) (report, error) {
	var pooled report
	byName := map[string]*workloadReport{}
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return pooled, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return pooled, fmt.Errorf("%s: %w", path, err)
		}
		for _, wr := range r.Workloads {
			if p, ok := byName[wr.Name]; ok {
				p.Passes = append(p.Passes, wr.Passes...)
				p.SetupS = append(p.SetupS, wr.SetupS...)
				continue
			}
			byName[wr.Name] = wr
			pooled.Workloads = append(pooled.Workloads, wr)
		}
	}
	return pooled, nil
}

// compareMain runs -compare OLD NEW, each a comma-separated list of -json
// reports, and returns the exit code: 1 when any pair got worse.
func compareMain(spec benchSpec, args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two lists of report files: OLD.json[,...] NEW.json[,...]")
		return 2
	}
	old, err := readReports(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cur, err := readReports(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	worse := 0
	for _, v := range compare(spec, old, cur, w) {
		if v.result == "worse" {
			worse++
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d metric × workload pairs got worse\n", worse)
		return 1
	}
	return 0
}
