package bench

import (
	"fmt"
	"strconv"

	"rocktm/internal/obs/timeseries"
	"rocktm/internal/workload"
)

// The timeline experiment: the E23 tail sweep's most contended corner —
// zipfian 0.99 keys — re-run with windowed timeseries capture, so the
// transient pathologies E23 could only infer from end-of-run percentiles
// (PhTM's phase-flip drain above all) become visible as concrete window
// ranges, get named by the pathology detectors, and are judged against
// declared SLOs with burn-rate verdicts. This is the fleet-judging
// machinery exercised end to end.
//
// Unlike the -timeline opt-in flag (which forces serial execution and
// deposits series into a side sink), the timeline figure carries each
// run's series inside its cell payload, so it runs through the runner's
// pool and content-addressed cache like any other experiment —
// serial ≡ parallel ≡ warm-cache byte-identical, pinned by test.

// timelinePoint is the timeline experiment's cell payload: the standard
// figure point plus the run's window series. Both survive the runner's
// canonical-JSON round trip byte-identically.
type timelinePoint struct {
	Point  Point
	Series timeseries.Series
}

// timelineWidth resolves the window width the experiment records at.
func (o Options) timelineWidth() int64 {
	if o.TimelineWindow > 0 {
		return o.TimelineWindow
	}
	return timeseries.DefaultWidth
}

// timelineSLOs declares the experiment's per-structure objectives. The
// thresholds are set between the families E23 measured: TLE's rbtree
// p99.9 sits near 9k cycles and PhTM's drain windows reach past 64k, so
// a 16k bound separates them; the hash table's short operations hold a
// tighter 8k bound that pure STM's validation tail breaks.
func timelineSLOs(structure string) []timeseries.SLO {
	switch structure {
	case "ht":
		return []timeseries.SLO{{Name: "ht-tail", Percentile: "p99.9", MaxCycles: 8192, TargetFrac: 0.99, MinOps: 8}}
	case "rbtree":
		return []timeseries.SLO{{Name: "rbtree-tail", Percentile: "p99.9", MaxCycles: 16384, TargetFrac: 0.99, MinOps: 8}}
	}
	return nil
}

// timelineStructures is the structure axis of the tail and timeline
// experiments.
func timelineStructures() []struct {
	name string
	cfg  kvConfig
} {
	return []struct {
		name string
		cfg  kvConfig
	}{
		{"ht", kvConfig{
			keyRange:  4096,
			pctLookup: 50,
			memWords:  1 << 23,
			build:     hashtableKV(1 << 12),
		}},
		{"rbtree", kvConfig{
			keyRange:  2048,
			pctLookup: 90,
			memWords:  1 << 22,
			build:     rbtreeKV,
		}},
	}
}

// TimelineFigure is the `-exp timeline` experiment: structure × system at
// zipf 0.99 across the thread axis, each cell carrying its window series.
// The throughput table matches the tail experiment's zipf0.99 columns
// byte-for-byte (same cells, same seeds); the notes carry the detector
// findings and SLO verdicts at the top thread count.
func TimelineFigure(o Options) (*Figure, error) {
	o = o.Defaults()
	o.Latency = true
	// The window width shapes the payload, so it must key the cache: a
	// series recorded at one width never aliases another.
	params := map[string]string{"timeline": "1", "window": strconv.FormatInt(o.timelineWidth(), 10)}
	var curves []curve
	for _, st := range timelineStructures() {
		for _, sb := range tailSystems() {
			cfg := st.cfg
			cfg.keys = workload.Zipfian(cfg.keyRange, 0.99)
			c := o.kvCurve(st.name+"/"+sb.Name, cfg, sb.Build, params)
			c.slos = timelineSLOs(st.name)
			curves = append(curves, c)
		}
	}
	pts, err := runCells(o, o.cells("timeline", curves), func(c cell) (timelinePoint, error) {
		res, series, err := o.run(c)
		return timelinePoint{Point: point(res, c.spec.Threads), Series: series}, err
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		Title:  "Timeline: windowed timeseries, zipf0.99, HashTable 4096 keys 50% lookups + RB-tree 2048 keys 90% lookups",
		YLabel: "throughput (ops/usec), simulated; window series in notes/exports",
	}
	nt := len(o.Threads)
	top := o.Threads[nt-1]
	// Judge the top-thread-count run of every curve: pathology findings
	// first, then the structure's SLO verdicts. Everything derives from the
	// cached payloads, so notes are byte-stable across serial, parallel and
	// warm-cache executions.
	for ci, c := range curves {
		curve := Curve{Name: c.name}
		for t := 0; t < nt; t++ {
			curve.Points = append(curve.Points, pts[ci*nt+t].Point)
		}
		fig.Curves = append(fig.Curves, curve)
		series := pts[ci*nt+nt-1].Series
		findings := timeseries.Detect(series)
		if len(findings) == 0 {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s @%dT: no pathologies detected over %d windows",
				c.name, top, len(series.Windows)))
		}
		for _, f := range findings {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s @%dT: %s", c.name, top, f))
		}
		for _, res := range timeseries.EvaluateSLOs(series, c.slos) {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s @%dT: SLO %s", c.name, top, res))
		}
	}
	return fig, nil
}
