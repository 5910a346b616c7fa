// Package bench is the experiment harness: it reconstructs every figure
// and table of the paper's evaluation sections on the simulated machine and
// renders them as aligned text tables (one column per curve, one row per
// thread count, throughput in operations per microsecond of simulated
// time, exactly the units the paper plots).
//
// Every per-strand operation loop is described declaratively as a
// workload.Spec (op mix, key distribution, arrival process) and executed
// through the shared workload.Driver — see docs/WORKLOADS.md. The driver
// preserves the legacy loops' RNG call sequences exactly, so the golden
// figure digests pinned in golden_test.go are byte-identical across the
// refactor.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rocktm/internal/core"
	"rocktm/internal/cps"
	"rocktm/internal/obs"
	"rocktm/internal/obs/timeseries"
	"rocktm/internal/runner"
	"rocktm/internal/sim"
	"rocktm/internal/workload"
)

// DefaultThreads is the paper's x-axis: 1–16 threads.
var DefaultThreads = []int{1, 2, 3, 4, 6, 8, 12, 16}

// Options scales experiments; the defaults run every figure in a few
// minutes on a laptop. The paper's full parameters (1,000,000 operations
// per thread, 3.6M-node roadmap) are reachable with -full.
type Options struct {
	Threads      []int
	OpsPerThread int
	Seed         uint64
	Out          io.Writer

	// Latency enables per-operation simulated-cycle latency capture on
	// every workload-driven figure: each point then carries a
	// p50/p90/p99/p99.9 digest into the figure's tables, CSV and JSON.
	// Off by default so legacy figure output stays byte-identical; the
	// recorder itself never perturbs the simulation either way. The knob
	// enters each cell's cache key ("lat" param), so cached latency-less
	// points are never served to a latency-enabled run.
	Latency bool

	// Trace, when non-nil, receives one cycle-timestamped event trace per
	// timed run (labelled "experiment/system@threads"), exportable as
	// Chrome trace_event JSON via TraceSink.WriteChrome.
	Trace *obs.TraceSink

	// Timeline, when non-nil, receives one windowed timeseries per timed
	// run (same labels as Trace), exportable as JSON or CSV via the sink.
	// Like Trace it forces inline serial execution and, per the
	// zero-perturbation contract, leaves every throughput byte unchanged.
	Timeline *timeseries.Sink
	// TimelineWindow is the window width in simulated cycles (<=0 selects
	// timeseries.DefaultWidth).
	TimelineWindow int64

	// Runner, when non-nil, executes experiment cells through the
	// host-parallel orchestrator: a worker pool with longest-expected-first
	// scheduling plus a content-addressed result cache. Nil runs cells
	// serially inline. Results are merged in submission order either way,
	// so parallel figures are byte-identical to serial ones.
	Runner *runner.Pool
}

// pool returns the pool cells should run on. Tracing and timeline capture
// force inline serial execution: a cache hit would produce no events, and
// the sink's deposit order must stay deterministic. (The timeline *figure*
// is exempt — its series ride inside the cell payloads, so it caches and
// parallelizes like any other experiment.)
func (o Options) pool() *runner.Pool {
	if o.Trace != nil || o.Timeline != nil {
		return nil
	}
	return o.Runner
}

// spec canonically identifies one cell of an experiment for the runner's
// scheduler and cache. cfg must be the exact machine configuration the
// cell will run under; params carries workload knobs (mixes, key ranges,
// skew distributions, policy weights) that the machine config cannot see.
// Latency capture folds in as the "lat" param: a latency-enabled cell has
// a different payload (the Point carries a digest), so it must never
// alias a latency-less cache entry.
func (o Options) spec(experiment, system string, threads int, cfg sim.Config, params map[string]string) runner.Spec {
	if o.Latency {
		p := map[string]string{"lat": "1"}
		for k, v := range params {
			p[k] = v
		}
		params = p
	}
	return runner.Spec{
		Experiment: experiment,
		System:     system,
		Threads:    threads,
		Ops:        o.OpsPerThread,
		Seed:       o.Seed,
		SimDigest:  cfg.Digest(),
		Params:     params,
	}
}

// latRecorder returns a fresh per-run latency recorder when capture is
// enabled, nil otherwise. One recorder serves all strands of a run: the
// machine baton serializes strand execution, so sharing is race-free and
// the merge is free.
func (o Options) latRecorder() *obs.LatencyRecorder {
	if !o.Latency {
		return nil
	}
	return obs.NewLatencyRecorder()
}

// pointCell is the common experiment cell: one deterministic machine
// build+run yielding one figure point.
type pointCell = runner.Cell[Point]

// runPoints executes point-producing cells through the configured pool
// (or inline) and returns them in submission order.
func runPoints(o Options, cells []pointCell) ([]Point, error) {
	return runner.RunCells(o.pool(), cells)
}

// curveCells assembles a figure's curves from a flat cell slice laid out
// curve-major: cells[c*len(threads)+t] is curve c at threads[t].
func curveCells(o Options, names []string, threads []int, cells []pointCell) ([]Curve, error) {
	points, err := runPoints(o, cells)
	if err != nil {
		return nil, err
	}
	curves := make([]Curve, len(names))
	for ci, name := range names {
		curves[ci] = Curve{Name: name, Points: points[ci*len(threads) : (ci+1)*len(threads)]}
	}
	return curves, nil
}

func itoa(v int) string { return strconv.Itoa(v) }

// startTrace attaches a tracer to m when tracing is requested.
func (o Options) startTrace(m *sim.Machine) *obs.Tracer {
	if o.Trace == nil {
		return nil
	}
	return m.StartTrace()
}

// endTrace deposits a finished run's trace into the sink.
func (o Options) endTrace(tr *obs.Tracer, label string) {
	if tr != nil {
		o.Trace.Add(label, tr)
	}
}

// attachWindows builds a windowed recorder at the given width (<=0 the
// default), keyed to the machine's clock frequency, and attaches it to
// every strand's hook points.
func attachWindows(m *sim.Machine, width int64) *timeseries.Recorder {
	rec := timeseries.NewRecorder(width)
	rec.SetFreqGHz(m.Config().Costs.FreqGHz)
	m.AttachEventSink(rec)
	return rec
}

// startWindows attaches a fresh windowed recorder when timeline capture is
// requested, nil otherwise. Call sites must guard Driver.Observe with a
// nil check (a nil *Recorder inside a non-nil interface would be called).
func (o Options) startWindows(m *sim.Machine) *timeseries.Recorder {
	if o.Timeline == nil {
		return nil
	}
	return attachWindows(m, o.TimelineWindow)
}

// endWindows deposits a finished run's window series into the sink.
func (o Options) endWindows(rec *timeseries.Recorder, label string) {
	if rec != nil && o.Timeline != nil {
		o.Timeline.Add(label, rec.Series())
	}
}

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if len(o.Threads) == 0 {
		o.Threads = DefaultThreads
	}
	if o.OpsPerThread == 0 {
		o.OpsPerThread = 4000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Point is one measurement.
type Point struct {
	Threads    int
	OpsPerUsec float64
	// Extra carries per-point annotations (retry fraction, lock fraction,
	// dominant CPS value) surfaced in the notes.
	Extra string
	// Lat is the per-operation simulated-cycle latency digest when the
	// cell recorded one (nil otherwise; absent points render exactly the
	// pre-latency byte layout, which is what keeps the legacy golden
	// digests stable).
	Lat *obs.LatencySummary `json:",omitempty"`
}

// point assembles the standard figure point from one run's Result — the
// single throughput/annotation/latency path every figure shares.
func point(res workload.Result, threads int) Point {
	return Point{Threads: threads, OpsPerUsec: res.Throughput(), Extra: res.Summary(), Lat: res.Lat}
}

// Curve is one line of a figure.
type Curve struct {
	Name   string
	Points []Point
}

// Figure is a reconstructed figure or table.
type Figure struct {
	Title  string
	YLabel string
	Curves []Curve
	Notes  []string
}

// hasLatency reports whether any point carries a latency digest.
func (f *Figure) hasLatency() bool {
	for _, c := range f.Curves {
		for _, p := range c.Points {
			if p.Lat != nil {
				return true
			}
		}
	}
	return false
}

// xAxis collects the distinct thread counts in first-appearance order.
func (f *Figure) xAxis() []int {
	xs := []int{}
	seen := map[int]bool{}
	for _, c := range f.Curves {
		for _, p := range c.Points {
			if !seen[p.Threads] {
				seen[p.Threads] = true
				xs = append(xs, p.Threads)
			}
		}
	}
	return xs
}

// renderTable writes one aligned thread × curve table, formatting each
// point through value ("-" for missing cells).
func (f *Figure) renderTable(w io.Writer, value func(Point) string) {
	xs := f.xAxis()
	header := []string{"threads"}
	for _, c := range f.Curves {
		header = append(header, c.Name)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{fmt.Sprintf("%d", x)}
		for _, c := range f.Curves {
			cell := "-"
			for _, p := range c.Points {
				if p.Threads == x {
					cell = value(p)
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		var sb strings.Builder
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			sb.WriteString(cell)
		}
		fmt.Fprintln(w, sb.String())
		if ri == 0 {
			fmt.Fprintln(w, strings.Repeat("-", len(sb.String())))
		}
	}
}

// latCell formats one latency percentile cell.
func latCell(l *obs.LatencySummary, pick func(*obs.LatencySummary) int64) string {
	if l == nil {
		return "-"
	}
	return strconv.FormatInt(pick(l), 10)
}

// Render writes the figure as an aligned table (plus per-percentile
// latency tables when the experiment recorded operation latencies).
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", f.Title)
	if f.YLabel != "" {
		fmt.Fprintf(w, "   (%s)\n", f.YLabel)
	}
	f.renderTable(w, func(p Point) string { return fmt.Sprintf("%.3f", p.OpsPerUsec) })
	if f.hasLatency() {
		percentiles := []struct {
			label string
			pick  func(*obs.LatencySummary) int64
		}{
			{"p50", func(l *obs.LatencySummary) int64 { return l.P50 }},
			{"p99.9", func(l *obs.LatencySummary) int64 { return l.P999 }},
		}
		for _, pc := range percentiles {
			fmt.Fprintf(w, "-- operation latency %s (simulated cycles) --\n", pc.label)
			pick := pc.pick
			f.renderTable(w, func(p Point) string { return latCell(p.Lat, pick) })
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the figure in machine-readable form. Latency-carrying points
// append four percentile columns (p50, p90, p99, p99.9 simulated cycles);
// latency-less rows keep the exact legacy five-column layout.
func (f *Figure) CSV(w io.Writer) {
	for _, c := range f.Curves {
		for _, p := range c.Points {
			if p.Lat != nil {
				fmt.Fprintf(w, "%s,%s,%d,%.4f,%s,%d,%d,%d,%d\n",
					f.Title, c.Name, p.Threads, p.OpsPerUsec, p.Extra,
					p.Lat.P50, p.Lat.P90, p.Lat.P99, p.Lat.P999)
				continue
			}
			fmt.Fprintf(w, "%s,%s,%d,%.4f,%s\n", f.Title, c.Name, p.Threads, p.OpsPerUsec, p.Extra)
		}
	}
}

// jsonPoint / jsonCurve / jsonFigure mirror the figure for -json output.
// The envelope fields ("kind", "title", "notes") are shared with the
// attribution report's JSON form so downstream tooling can switch on
// "kind" and treat both uniformly.
type jsonPoint struct {
	Threads    int                 `json:"threads"`
	OpsPerUsec float64             `json:"ops_per_usec"`
	Extra      string              `json:"extra,omitempty"`
	Lat        *obs.LatencySummary `json:"latency,omitempty"`
}

type jsonCurve struct {
	Name   string      `json:"name"`
	Points []jsonPoint `json:"points"`
}

type jsonFigure struct {
	Kind   string      `json:"kind"`
	Title  string      `json:"title"`
	YLabel string      `json:"ylabel,omitempty"`
	Curves []jsonCurve `json:"curves"`
	Notes  []string    `json:"notes,omitempty"`
}

// JSON writes the figure as one indented JSON document.
func (f *Figure) JSON(w io.Writer) error {
	doc := jsonFigure{Kind: "figure", Title: f.Title, YLabel: f.YLabel, Notes: f.Notes}
	for _, c := range f.Curves {
		jc := jsonCurve{Name: c.Name, Points: make([]jsonPoint, 0, len(c.Points))}
		for _, p := range c.Points {
			jc.Points = append(jc.Points, jsonPoint{Threads: p.Threads, OpsPerUsec: p.OpsPerUsec, Extra: p.Extra, Lat: p.Lat})
		}
		doc.Curves = append(doc.Curves, jc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}

// ValueAt returns curve name's throughput at the given thread count.
func (f *Figure) ValueAt(name string, threads int) (float64, bool) {
	for _, c := range f.Curves {
		if c.Name != name {
			continue
		}
		for _, p := range c.Points {
			if p.Threads == threads {
				return p.OpsPerUsec, true
			}
		}
	}
	return 0, false
}

// LatencyAt returns curve name's latency digest at the given thread count.
func (f *Figure) LatencyAt(name string, threads int) (*obs.LatencySummary, bool) {
	for _, c := range f.Curves {
		if c.Name != name {
			continue
		}
		for _, p := range c.Points {
			if p.Threads == threads && p.Lat != nil {
				return p.Lat, true
			}
		}
	}
	return nil, false
}

// summarizeStats renders the per-point annotation string; kept as a thin
// alias so call sites outside the workload.Result path (MSF, profile)
// share the one implementation in internal/workload.
func summarizeStats(st *core.Stats) string { return workload.StatsSummary(st) }

var _ = cps.COH // keep the import for documentation references

// machineCfg is the standard experiment machine configuration; cells
// derive their cache-key digests from it, so it must be the exact config
// machineFor instantiates.
func machineCfg(threads int, memWords int, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(threads)
	cfg.MemWords = memWords
	cfg.Seed = seed
	cfg.MaxCycles = 1 << 46
	return cfg
}

// machineFor builds the standard experiment machine.
func machineFor(threads int, memWords int, seed uint64) *sim.Machine {
	return sim.New(machineCfg(threads, memWords, seed))
}
