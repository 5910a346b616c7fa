package timeseries

import "fmt"

// SLO machinery: experiments declare a latency objective — "p99.9 ≤ N
// cycles in 99.9% of windows" — and evaluate it against a window series.
// The verdict is reported SRE-style as error-budget burn: with target
// fraction T, the budget is the (1-T) fraction of windows allowed to
// violate the threshold, and the burn rate is the measured violation
// fraction divided by that allowance. Burn ≤ 1 passes; burn 10 means the
// run consumed its tail-latency budget ten times over. This is the
// machinery for judging TM systems as a fleet.

// SLO declares one windowed latency objective.
type SLO struct {
	// Name labels the objective in reports ("rbtree-tail").
	Name string `json:"name"`
	// Percentile selects which window statistic is judged: one of "p50",
	// "p90", "p99", "p99.9", "max".
	Percentile string `json:"percentile"`
	// MaxCycles is the latency threshold in simulated cycles.
	MaxCycles int64 `json:"max_cycles"`
	// TargetFrac is the fraction of (ops-bearing) windows that must meet
	// the threshold, e.g. 0.999. The error budget is 1 - TargetFrac.
	TargetFrac float64 `json:"target_frac"`
	// MinOps skips windows with fewer completed operations — their
	// percentiles are noise. Zero means judge every ops-bearing window.
	MinOps uint64 `json:"min_ops,omitempty"`
}

// String renders the declaration the way E24 reports it.
func (o SLO) String() string {
	return fmt.Sprintf("%s: %s <= %d cycles in %.4g%% of windows",
		o.Name, o.Percentile, o.MaxCycles, o.TargetFrac*100)
}

// value extracts the judged statistic from a window (ok=false for an
// unknown percentile name).
func (o SLO) value(w WindowStats) (int64, bool) {
	switch o.Percentile {
	case "p50":
		return w.P50, true
	case "p90":
		return w.P90, true
	case "p99":
		return w.P99, true
	case "p99.9", "p999":
		return w.P999, true
	case "max":
		return w.Max, true
	}
	return 0, false
}

// SLOResult is one objective's verdict over one series.
type SLOResult struct {
	SLO SLO `json:"slo"`
	// Windows is how many windows were judged (ops-bearing, above MinOps);
	// Violations how many exceeded MaxCycles.
	Windows    int `json:"windows"`
	Violations int `json:"violations"`
	// ViolationFrac = Violations/Windows; BurnRate = ViolationFrac divided
	// by the declared error budget (1-TargetFrac). Burn ≤ 1 passes.
	ViolationFrac float64 `json:"violation_frac"`
	BurnRate      float64 `json:"burn_rate"`
	Pass          bool    `json:"pass"`
	// WorstWindow/WorstValue locate the worst excursion (WorstWindow is -1
	// when no window was judged).
	WorstWindow int   `json:"worst_window"`
	WorstValue  int64 `json:"worst_value"`
}

// String renders the verdict compactly for figure notes and E24.
func (r SLOResult) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s [%s]: %d/%d windows violate, burn %.2fx budget, worst window %d (%s=%d cycles)",
		r.SLO.Name, verdict, r.Violations, r.Windows, r.BurnRate, r.WorstWindow, r.SLO.Percentile, r.WorstValue)
}

// Evaluate judges the objective against a series. A series with no
// judgeable windows passes vacuously (Windows=0, WorstWindow=-1) — an
// experiment that captured nothing has not violated its budget.
func (o SLO) Evaluate(s Series) SLOResult {
	res := SLOResult{SLO: o, Pass: true, WorstWindow: -1}
	minOps := o.MinOps
	if minOps == 0 {
		minOps = 1
	}
	for _, w := range s.Windows {
		if w.Ops < minOps {
			continue
		}
		v, ok := o.value(w)
		if !ok {
			continue
		}
		res.Windows++
		if v > o.MaxCycles {
			res.Violations++
		}
		if v > res.WorstValue || res.WorstWindow < 0 {
			res.WorstValue = v
			res.WorstWindow = w.Index
		}
	}
	if res.Windows == 0 {
		return res
	}
	res.ViolationFrac = float64(res.Violations) / float64(res.Windows)
	budget := 1 - o.TargetFrac
	if budget <= 0 {
		// A 100% target has zero budget: any violation is an infinite burn,
		// reported as the violation count itself to stay finite and ordered.
		if res.Violations > 0 {
			res.BurnRate = float64(res.Violations) * float64(res.Windows)
			res.Pass = false
		}
		return res
	}
	res.BurnRate = res.ViolationFrac / budget
	res.Pass = res.BurnRate <= 1
	return res
}

// EvaluateSLOs judges a set of objectives against one series, in input
// order (deterministic report layout).
func EvaluateSLOs(s Series, slos []SLO) []SLOResult {
	out := make([]SLOResult, 0, len(slos))
	for _, o := range slos {
		out = append(out, o.Evaluate(s))
	}
	return out
}
