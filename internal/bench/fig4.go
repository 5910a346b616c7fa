package bench

import (
	"fmt"
	"io"
	"math"

	"rocktm/internal/core"
	"rocktm/internal/graphgen"
	"rocktm/internal/locktm"
	"rocktm/internal/msf"
	"rocktm/internal/profile"
	"rocktm/internal/runner"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/tle"
	"rocktm/internal/workload"
)

// MSFExtra is the fraction of extra shortcut edges in the Figure 4 and
// Section 8.1 roadmaps (graphgen.RoadmapEdges), and cmd/msf's default.
const MSFExtra = 0.05

// msfSpec canonically identifies one MSF cell for the runner's scheduler
// and cache. The machine's memory size is derived from the graph (too
// expensive to regenerate just for a key), so the digest is taken over
// the pre-sizing configuration; the graph parameters that drive the
// sizing are all in Params, and sizing-code changes are covered by the
// cache-version salt like any other code change.
func msfSpec(o Options, experiment, variant string, threads int, mode sim.Mode) runner.Spec {
	return runner.Spec{
		Experiment: experiment,
		System:     variant,
		Threads:    threads,
		Seed:       o.Seed,
		SimDigest:  msfConfig(threads, o.Seed, mode).Digest(),
		Params: map[string]string{
			"width":  itoa(o.MSFDim),
			"height": itoa(o.MSFDim),
			"extra":  fmt.Sprintf("%g", MSFExtra),
			"mode":   itoa(int(mode)),
		},
	}
}

type msfVariant struct {
	name    string
	variant msf.Variant
	build   func(m *sim.Machine) core.System
	seqOnly bool
}

func msfVariants() []msfVariant {
	newSky := func(m *sim.Machine) core.System { return sky.New(m) }
	newLock := func(m *sim.Machine) core.System { return locktm.NewOneLock(m) }
	newLE := func(m *sim.Machine) core.System {
		return tle.New("le", tle.SpinAdapter{L: locktm.NewSpinLock(m.Mem())}, tle.DefaultPolicy())
	}
	return []msfVariant{
		{"msf-orig-sky", msf.Orig, newSky, false},
		{"msf-opt-sky", msf.Opt, newSky, false},
		{"msf-orig-lock", msf.Orig, newLock, false},
		{"msf-opt-lock", msf.Opt, newLock, false},
		{"msf-orig-le", msf.Orig, newLE, false},
		{"msf-opt-le", msf.Opt, newLE, false},
		{"msf-seq", msf.Orig, func(m *sim.Machine) core.System { return locktm.NewSeq() }, true},
	}
}

// MSFVariantNames lists the seven variant names in the paper's order.
func MSFVariantNames() []string {
	var out []string
	for _, v := range msfVariants() {
		out = append(out, v.name)
	}
	return out
}

// msfVariantNamed returns the variant called name.
func msfVariantNamed(name string) (msfVariant, error) {
	for _, v := range msfVariants() {
		if v.name == name {
			return v, nil
		}
	}
	return msfVariant{}, fmt.Errorf("unknown MSF variant %q (valid: %v)", name, MSFVariantNames())
}

// msfConfig is the machine configuration of an MSF run before its memory
// is sized for the graph; spec digests it.
func msfConfig(threads int, seed uint64, mode sim.Mode) sim.Config {
	cfg := sim.DefaultConfig(threads)
	cfg.Seed = seed
	cfg.Mode = mode
	cfg.MaxCycles = 1 << 48
	return cfg
}

// msfMemWords sizes simulated memory for a graph of n vertices and mEdges
// undirected edges: a power of two of at least 4M words.
func msfMemWords(n, mEdges int) int {
	need := 8*(2*mEdges+2*n) + 16*n + 1<<21
	words := 1 << 22
	for words < need {
		words <<= 1
	}
	return words
}

// CheckMSFGrid reports an error when the width×height roadmap grid with
// the extra shortcut fraction (graphgen.RoadmapEdges) needs more simulated
// memory than a machine can have, by msfMemWords over the grid's largest
// possible edge count. It allocates nothing, and it sizes the grid in
// float64, so no count overflows. The memory bound also keeps every
// vertex id within graphgen's uint32.
func CheckMSFGrid(width, height int, extra float64) error {
	n := float64(width) * float64(height)
	grid := float64(width-1)*float64(height) + float64(width)*float64(height-1)
	edges := grid + math.Floor(extra*grid)
	if !(n+edges < 1<<40) { // beyond any machine; msfMemWords would overflow
		return fmt.Errorf("a %d×%d grid with extra %g has %.3g vertices and up to %.3g edges, too many to simulate",
			width, height, extra, n, edges)
	}
	cfg := sim.DefaultConfig(1)
	cfg.MemWords = msfMemWords(int(n), int(edges))
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("a %d×%d grid with extra %g needs %d words of simulated memory: %w",
			width, height, extra, cfg.MemWords, err)
	}
	return nil
}

// MSFRun is one validated MSF run.
type MSFRun struct {
	Result msf.Result
	Stats  *core.Stats
	// Cycles is the run's elapsed virtual time; Seconds is the same in
	// simulated seconds.
	Cycles  int64
	Seconds float64
}

// RunMSFGraph runs the MSF variant called name (one of MSFVariantNames)
// with threads strands over the graph (n, edges), on a machine sized for
// the graph, and validates the forest against sequential Kruskal. It is
// the one MSF run: the Figure 4 and Section 8.1 cells and cmd/msf all
// call it.
func RunMSFGraph(name string, n int, edges []graphgen.Edge, threads int, seed uint64, mode sim.Mode) (MSFRun, error) {
	v, err := msfVariantNamed(name)
	if err != nil {
		return MSFRun{}, err
	}
	cfg := msfConfig(threads, seed, mode)
	cfg.MemWords = msfMemWords(n, len(edges))
	m := sim.New(cfg)
	defer m.Recycle()
	g := graphgen.Build(m, n, edges)
	sys := v.build(m)
	r := msf.NewRunner(m, g, sys, v.variant)
	res := r.Run(m)
	if err := r.Validate(res); err != nil {
		return MSFRun{}, fmt.Errorf("%s/%d threads: %w", name, threads, err)
	}
	return MSFRun{Result: res, Stats: sys.Stats(), Cycles: m.MaxClock(), Seconds: m.ElapsedSeconds()}, nil
}

// runMSF measures variant name at one thread count and chip mode on o's
// synthetic roadmap, returning the running time in simulated seconds plus
// fallback statistics.
func runMSF(o Options, name string, threads int, mode sim.Mode) (float64, string, error) {
	n, edges := graphgen.RoadmapEdges(o.MSFDim, o.MSFDim, MSFExtra, 1<<20, o.Seed)
	run, err := RunMSFGraph(name, n, edges, threads, o.Seed, mode)
	if err != nil {
		return 0, "", err
	}
	return run.Seconds, workload.StatsSummary(run.Stats), nil
}

// pointCell is one MSF measurement as a runner cell.
type pointCell = runner.Cell[Point]

// msfCell wraps one (variant, threads, mode) measurement as a runner cell.
func msfCell(o Options, experiment string, v msfVariant, threads int, mode sim.Mode) pointCell {
	return pointCell{
		Spec: msfSpec(o, experiment, v.name, threads, mode),
		Compute: func() (Point, error) {
			secs, extra, err := runMSF(o, v.name, threads, mode)
			if err != nil {
				return Point{}, err
			}
			return Point{Threads: threads, OpsPerUsec: secs, Extra: extra}, nil
		},
	}
}

// msfCurve is one curve of an MSF figure: its name and its cells, which
// may span their own thread axis (msf-seq runs at one thread only).
type msfCurve struct {
	name  string
	cells []pointCell
}

// msfCurves runs the curves' cells through the pool and assembles them in
// submission order.
func msfCurves(pool *runner.Pool, curves []msfCurve) ([]Curve, error) {
	var flat []pointCell
	for _, c := range curves {
		flat = append(flat, c.cells...)
	}
	points, err := runner.RunCells(pool, flat)
	if err != nil {
		return nil, err
	}
	out := make([]Curve, len(curves))
	at := 0
	for i, c := range curves {
		out[i] = Curve{Name: c.name, Points: points[at : at+len(c.cells)]}
		at += len(c.cells)
	}
	return out, nil
}

// Fig4 reconstructs Figure 4: MSF running time (simulated seconds — the
// paper's y axis is also running time, log scale) for the seven variants,
// each at every thread count in o.Threads (msf-seq at one thread) on an
// o.MSFDim×o.MSFDim roadmap.
func Fig4(o Options) (*Figure, error) {
	o = o.Defaults()
	var curves []msfCurve
	for _, v := range msfVariants() {
		threads := o.Threads
		if v.seqOnly {
			threads = []int{1}
		}
		c := msfCurve{name: v.name}
		for _, th := range threads {
			c.cells = append(c.cells, msfCell(o, "fig4", v, th, sim.SSE))
		}
		curves = append(curves, c)
	}
	fig := &Figure{
		Title: fmt.Sprintf("Figure 4 MSF, synthetic roadmap %dx%d grid (+%.0f%% shortcuts)",
			o.MSFDim, o.MSFDim, MSFExtra*100),
		YLabel: "running time (simulated seconds; lower is better)",
	}
	var err error
	if fig.Curves, err = msfCurves(o.Runner, curves); err != nil {
		return nil, err
	}
	fig.noteLast(nil)
	fig.Notes = append(fig.Notes, "values are RUNNING TIME in simulated seconds, not throughput")
	return fig, nil
}

// SEModeMSF reconstructs the Section 8.1 SE-mode observation: with the
// 16-entry store queue, msf-opt-le's transactions overflow (ST|SIZ) and
// the lock-fallback fraction rises by orders of magnitude.
func SEModeMSF(o Options) (*Figure, error) {
	o = o.Defaults()
	fig := &Figure{
		Title:  "Section 8.1 msf-opt-le in SSE vs SE mode",
		YLabel: "running time (simulated seconds; lower is better)",
	}
	leVariant, err := msfVariantNamed("msf-opt-le")
	if err != nil {
		return nil, err
	}
	var curves []msfCurve
	for _, mode := range []sim.Mode{sim.SSE, sim.SE} {
		name := "SSE"
		if mode == sim.SE {
			name = "SE"
		}
		c := msfCurve{name: "msf-opt-le-" + name}
		for _, th := range o.Threads {
			c.cells = append(c.cells, msfCell(o, "msfse", leVariant, th, mode))
		}
		curves = append(curves, c)
	}
	if fig.Curves, err = msfCurves(o.Runner, curves); err != nil {
		return nil, err
	}
	for _, curve := range fig.Curves {
		for _, p := range curve.Points {
			if p.Threads == 1 && p.Extra != "" {
				fig.Notes = append(fig.Notes, fmt.Sprintf("%s single-thread: %s", curve.Name, p.Extra))
			}
		}
	}
	return fig, nil
}

// Profile is the Section 6.1 failure analysis: one row per tree size.
type Profile struct {
	Rows []ProfileRow
}

// ProfileRow is one tree size profiled twice: with a tight hardware-retry
// budget (2 tries) and with the default (8) — the paper's own experiment,
// which showed that additional retries bring the needed data into the
// cache and rescue transactions that would otherwise fail.
type ProfileRow struct {
	TreeKeys int
	Tight    profile.Summary // 2 tries
	Default  profile.Summary // 8 tries
}

// ProfileReport runs the Section 6.1 failure analysis with ops operations
// per tree size (1024, 4096 and 24000 keys when sizes is empty).
func ProfileReport(ops int, sizes []int) *Profile {
	if len(sizes) == 0 {
		sizes = []int{1024, 4096, 24000}
	}
	p := &Profile{}
	for _, size := range sizes {
		cfg := profile.Config{
			TreeKeys:   size,
			Ops:        ops,
			PctGet:     70,
			PctInsert:  15,
			Seed:       42,
			MaxHWTries: 2,
		}
		row := ProfileRow{TreeKeys: size, Tight: profile.Summarize(profile.Run(cfg))}
		cfg.MaxHWTries = 8
		row.Default = profile.Summarize(profile.Run(cfg))
		p.Rows = append(p.Rows, row)
	}
	return p
}

// lines renders the rows, six lines per tree size.
func (p *Profile) lines() []string {
	var lines []string
	for _, r := range p.Rows {
		sum, sum8 := r.Tight, r.Default
		lines = append(lines,
			fmt.Sprintf("tree=%d ops=%d: %d/%d failed to software with a 2-try budget; %d/%d with 8 tries (retries warm the cache)",
				r.TreeKeys, sum.Ops, sum.Failed, sum.Ops, sum8.Failed, sum8.Ops),
			fmt.Sprintf("  read-set lines   succeeded max=%d mean=%.1f | failed max=%d mean=%.1f",
				sum.MaxReadLines[0], sum.MeanReadLines[0], sum.MaxReadLines[1], sum.MeanReadLines[1]),
			fmt.Sprintf("  max lines/L1 set succeeded=%d failed=%d (set overflows: %d vs %d)",
				sum.MaxLinesPerSet[0], sum.MaxLinesPerSet[1], sum.SetOverflows[0], sum.SetOverflows[1]),
			fmt.Sprintf("  write words max  succeeded=%d failed=%d (bank overflows: %d vs %d)",
				sum.MaxWriteWords[0], sum.MaxWriteWords[1], sum.BankOverflows[0], sum.BankOverflows[1]),
			fmt.Sprintf("  failure CPS histogram: %s", sum.CPSHist),
			"  stack writes: 0 (not modelled; documented divergence)",
		)
	}
	return lines
}

// Render writes the report under its header, then a blank line.
func (p *Profile) Render(w io.Writer) {
	fmt.Fprintln(w, "== Section 6.1 transaction-failure analysis (single-thread PhTM vs STM replay) ==")
	for _, line := range p.lines() {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w)
}

// CSV writes nothing: the profile has no machine-readable form.
func (p *Profile) CSV(io.Writer) {}

// JSON writes nothing: the profile has no machine-readable form.
func (p *Profile) JSON(io.Writer) error { return nil }
