package bench

import (
	"fmt"

	"rocktm/internal/core"
	"rocktm/internal/obs"
	"rocktm/internal/obs/timeseries"
	"rocktm/internal/runner"
	"rocktm/internal/sim"
	"rocktm/internal/workload"
)

// The one cell path. Every single-machine workload cell (of each
// experiment that Catalogue's doc says captures) is a recipe: the
// runner spec that names and keys it, the exact machine configuration it
// runs on, its workload, and a build step that constructs the structure
// and the system on the fresh machine. Options.run alone turns a recipe
// into a measurement: it owns the machine, the latency recorder, the
// tracer, the window recorder and the driver wiring, and deposits each
// captured run under the cell's name, experiment/curve@NT.

// dispatch is one strand's op dispatch: the workload driver calls it once
// per operation with the iteration index, the op's index in the workload
// spec and the drawn key.
type dispatch = func(i, op int, key uint64)

// built is what a cell's build step hands the run.
type built struct {
	// stats is the system whose Stats annotate the point (nil: none).
	stats interface{ Stats() *core.Stats }
	// strand returns one strand's op dispatch. It runs on the strand,
	// before the strand's first operation.
	strand func(s *sim.Strand) dispatch
	// leave, when set, runs on each strand after its last operation.
	leave func(s *sim.Strand)
	// check, when set, runs after the last operation, before the machine
	// is recycled; an error fails the cell.
	check func() error
}

// cell is one single-machine workload cell.
type cell struct {
	spec  runner.Spec
	cfg   sim.Config
	wl    workload.Spec
	build func(m *sim.Machine) built
	// slos marks a timeline-figure cell: its window series is always
	// recorded for the payload, and a -timeline deposit carries the
	// detector findings and these SLO verdicts.
	slos []timeseries.SLO
}

// curve is one line of a single-machine figure: the cell recipe shared by
// every thread count, named by the curve and keyed by params.
type curve struct {
	name   string
	params map[string]string
	cfg    func(threads int) sim.Config
	wl     workload.Spec
	build  func(m *sim.Machine) built
	slos   []timeseries.SLO
}

// machine returns the standard experiment machine with memWords words of
// memory, at any thread count.
func (o Options) machine(memWords int) func(threads int) sim.Config {
	return func(threads int) sim.Config { return machineCfg(threads, memWords, o.Seed) }
}

// cells lays out one cell per curve per thread count, curve-major.
func (o Options) cells(experiment string, curves []curve) []cell {
	out := make([]cell, 0, len(curves)*len(o.Threads))
	for _, c := range curves {
		for _, th := range o.Threads {
			cfg := c.cfg(th)
			out = append(out, cell{
				spec:  o.spec(experiment, c.name, th, cfg, c.params),
				cfg:   cfg,
				wl:    c.wl,
				build: c.build,
				slos:  c.slos,
			})
		}
	}
	return out
}

// run executes one cell on a fresh machine and returns the run's result
// and, when the cell or the options capture one, its window series. The
// latency recorder, tracer and window recorder only observe, so the
// result is bit-identical with capture on or off. The latency and window
// recorders go back to obs's pool once digested, as the machine goes back
// to sim's.
func (o Options) run(c cell) (workload.Result, timeseries.Series, error) {
	m := sim.New(c.cfg)
	defer m.Recycle()
	b := c.build(m)
	wl := workload.MustCompile(c.wl)
	var lat *obs.LatencyRecorder
	if o.Latency {
		lat = obs.NewLatencyRecorder()
	}
	var tr *obs.Tracer
	if o.Trace != nil {
		tr = m.StartTrace()
	}
	// A nil *Recorder inside a non-nil interface would be called, so
	// Observe is guarded on rec rather than handed it unconditionally.
	var rec *timeseries.Recorder
	if o.Timeline != nil || c.slos != nil {
		rec = timeseries.NewRecorder(o.TimelineWindow)
		rec.SetFreqGHz(sim.FreqGHz)
		m.AttachEventSink(rec)
	}
	m.Run(func(s *sim.Strand) {
		do := b.strand(s)
		d := wl.Driver(s, lat)
		if rec != nil {
			d.Observe(rec)
		}
		d.Run(c.spec.Ops, do)
		if b.leave != nil {
			b.leave(s)
		}
	})
	if tr != nil {
		o.Trace.Add(c.spec.String(), tr)
	}
	var series timeseries.Series
	if rec != nil {
		series = rec.Series()
		rec.Recycle()
	}
	switch {
	case o.Timeline != nil && c.slos != nil:
		o.Timeline.AddJudged(c.spec.String(), series, timeseries.Detect(series), timeseries.EvaluateSLOs(series, c.slos))
	case o.Timeline != nil:
		o.Timeline.Add(c.spec.String(), series)
	}
	if b.check != nil {
		if err := b.check(); err != nil {
			return workload.Result{}, series, fmt.Errorf("%s: %w", c.spec, err)
		}
	}
	var st *core.Stats
	if b.stats != nil {
		st = b.stats.Stats()
	}
	res := workload.NewResult(uint64(c.spec.Threads*c.spec.Ops), m.ElapsedSeconds(), st, lat)
	if lat != nil {
		lat.Recycle()
	}
	return res, series, nil
}

// runCells runs cells through the pool and returns their payloads in
// submission order; payload turns one cell into what the runner caches.
func runCells[T any](o Options, cells []cell, payload func(c cell) (T, error)) ([]T, error) {
	jobs := make([]runner.Cell[T], len(cells))
	for i, c := range cells {
		c := c
		jobs[i] = runner.Cell[T]{Spec: c.spec, Compute: func() (T, error) { return payload(c) }}
	}
	return runner.RunCells(o.pool(), jobs)
}

// figure runs every curve at every thread count as one throughput figure.
func (o Options) figure(experiment, title string, curves []curve) (*Figure, error) {
	points, err := runCells(o, o.cells(experiment, curves), func(c cell) (Point, error) {
		res, _, err := o.run(c)
		return point(res, c.spec.Threads), err
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{Title: title, YLabel: "throughput (ops/usec), simulated"}
	nt := len(o.Threads)
	for i, c := range curves {
		fig.Curves = append(fig.Curves, Curve{Name: c.name, Points: points[i*nt : (i+1)*nt]})
	}
	return fig, nil
}

// noteLast notes the last point's annotation of every curve that keep
// accepts (nil accepts all).
func (f *Figure) noteLast(keep func(name string) bool) {
	for _, c := range f.Curves {
		if last := c.Points[len(c.Points)-1]; last.Extra != "" && (keep == nil || keep(c.Name)) {
			f.Notes = append(f.Notes, fmt.Sprintf("%s @%d threads: %s", c.Name, last.Threads, last.Extra))
		}
	}
}
