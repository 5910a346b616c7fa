package bench

import "io"

// Report is what one catalogue row produces: a Figure, the CPSTable, the
// AttribReport or the Section 6.1 Profile.
type Report interface {
	Render(w io.Writer)
	CSV(w io.Writer)
	JSON(w io.Writer) error
}

// Experiment is one row of the catalogue: a `figures -exp` name and the
// run that produces its report at the given options.
type Experiment struct {
	Name string
	Run  func(Options) (Report, error)
}

// Catalogue is every experiment, in the order `figures -exp all` prints
// them; `figures -exp list` prints the names sorted. The rows are the
// paper's figures and tables (EXPERIMENTS.md) and these extensions: tail
// (zipfian skew × system latency percentiles, docs/WORKLOADS.md),
// timeline (window series, pathology detectors and SLO burn rates,
// docs/OBSERVABILITY.md), fleet (router × batching × 2PC over the shard
// count, docs/SERVICE.md), the ablations ablate-retry (PhTM retry budget),
// ablate-ucti (UCTI failure weight) and ablate-throttle (adaptive
// concurrency throttling), policy (retry policy × fault-injection profile,
// docs/POLICY.md and docs/ABORT-PLAYBOOK.md), htmdesign (HTM design point
// × workload × retry policy, docs/HTM-DESIGN.md), attrib (Table-4-style
// abort attribution) and profile (the Section 6.1 failure analysis).
//
// Options.Trace and Options.Timeline (figures -trace and -timeline)
// capture one event trace and one window series per cell of every row but
// table1 and profile (no cells), fig4 and msfse (the MSF runner) and
// fleet (many machines per cell), each labelled with the cell's name,
// experiment/curve@NT — the name -progress prints after "last=". Having
// no cells, table1 and profile are never cached either: they recompute on
// every run.
var Catalogue = []Experiment{
	row("table1", Table1),
	row("counter", CounterFigure),
	row("dcas", DCASFigure),
	row("fig1a", Fig1a),
	row("fig1b", Fig1b),
	row("fig1ro", Fig1ReadOnly),
	row("fig2a", Fig2a),
	row("fig2b", Fig2b),
	row("fig3a", Fig3a),
	row("fig3b", Fig3b),
	row("divide", DivideHashDemo),
	row("inline", InlineDemo),
	row("treemap", TreeMapDemo),
	row("volano", VolanoFigure),
	row("tail", TailFigure),
	row("timeline", TimelineFigure),
	row("fleet", FleetFigure),
	row("fig4", Fig4),
	row("msfse", SEModeMSF),
	row("ablate-retry", AblationRetryBudget),
	row("ablate-ucti", AblationUCTIWeight),
	row("ablate-throttle", AblationThrottle),
	row("policy", PolicyFigure),
	row("htmdesign", HTMDesignFigure),
	row("attrib", AttributionReport),
	row("profile", func(o Options) (*Profile, error) { return ProfileReport(o.Defaults().ProfileOps, nil), nil }),
}

// row makes the catalogue row name from an experiment's run, returning a
// failed run's report as nil rather than as a Report holding a nil
// pointer.
func row[R Report](name string, run func(Options) (R, error)) Experiment {
	return Experiment{Name: name, Run: func(o Options) (Report, error) {
		r, err := run(o)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}
