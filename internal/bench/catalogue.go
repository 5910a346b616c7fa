package bench

import "io"

// Report is what one catalogue row produces: a Figure, the AttribReport or
// the Section 6.1 Profile.
type Report interface {
	Render(w io.Writer)
	CSV(w io.Writer)
	JSON(w io.Writer) error
}

// Experiment is one row of the catalogue: a `figures -exp` name and the
// run that produces its report. Run takes every option a row may read:
// the single-machine experiments and fleet read o, fig4 and msfse read mo,
// and profile reads profileOps.
type Experiment struct {
	Name string
	Run  func(o Options, mo MSFOptions, profileOps int) (Report, error)
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
// fig4 and msfse (the MSF runner), fleet (many machines per cell) and
// profile (no cells), each labelled with the cell's name,
// experiment/curve@NT — the name -progress prints after "last=".
var Catalogue = []Experiment{
	{"counter", withOptions(CounterFigure)},
	{"dcas", withOptions(DCASFigure)},
	{"fig1a", withOptions(Fig1a)},
	{"fig1b", withOptions(Fig1b)},
	{"fig1ro", withOptions(Fig1ReadOnly)},
	{"fig2a", withOptions(Fig2a)},
	{"fig2b", withOptions(Fig2b)},
	{"fig3a", withOptions(Fig3a)},
	{"fig3b", withOptions(Fig3b)},
	{"divide", withOptions(DivideHashDemo)},
	{"inline", withOptions(InlineDemo)},
	{"treemap", withOptions(TreeMapDemo)},
	{"volano", withOptions(VolanoFigure)},
	{"tail", withOptions(TailFigure)},
	{"timeline", withOptions(TimelineFigure)},
	{"fleet", withOptions(FleetFigure)},
	{"fig4", withMSF(Fig4)},
	{"msfse", withMSF(SEModeMSF)},
	{"ablate-retry", withOptions(AblationRetryBudget)},
	{"ablate-ucti", withOptions(AblationUCTIWeight)},
	{"ablate-throttle", withOptions(AblationThrottle)},
	{"policy", withOptions(PolicyFigure)},
	{"htmdesign", withOptions(HTMDesignFigure)},
	{"attrib", withOptions(AttributionReport)},
	{"profile", func(_ Options, _ MSFOptions, ops int) (Report, error) { return ProfileReport(ops, nil), nil }},
}

// withOptions adapts an experiment that reads only Options to a Run.
func withOptions[R Report](run func(Options) (R, error)) func(Options, MSFOptions, int) (Report, error) {
	return func(o Options, _ MSFOptions, _ int) (Report, error) { return report(run(o)) }
}

// withMSF adapts an experiment that reads only MSFOptions to a Run.
func withMSF(run func(MSFOptions) (*Figure, error)) func(Options, MSFOptions, int) (Report, error) {
	return func(_ Options, mo MSFOptions, _ int) (Report, error) { return report(run(mo)) }
}

// report returns a run's result as a Report, and a failed run's as nil
// rather than as a Report holding a nil pointer.
func report[R Report](r R, err error) (Report, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}
