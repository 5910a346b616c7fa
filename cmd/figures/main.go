// Command figures regenerates every figure and table of the paper's
// evaluation on the simulated Rock machine.
//
// Usage:
//
//	figures -exp all                 # everything (parallel across host cores)
//	figures -exp list                # list valid experiment names
//	figures -exp fig1a,fig2b         # selected experiments
//	figures -exp fig4 -msf-dim 96    # a bigger roadmap
//	figures -ops 20000               # more operations per thread
//	figures -csv                     # machine-readable output too
//	figures -json                    # one JSON document per figure
//	figures -exp attrib              # Table-4-style abort attribution
//	figures -exp tail                # skew x system latency percentiles
//	figures -latency -exp fig2b      # add p50/p90/p99/p99.9 to any figure
//	figures -exp fig1a -trace t.json # Chrome/Perfetto event trace
//	figures -exp timeline            # windowed timeseries + detectors + SLOs
//	figures -exp fleet               # sharded service tier: router x batching x 2PC
//	figures -exp htmdesign           # HTM design space: design point x workload x policy
//	figures -exp tail -timeline w.json    # window series of any experiment
//	figures -timeline-window 16384   # window width in simulated cycles
//	figures -parallel 8              # worker-pool size (0 = GOMAXPROCS)
//	figures -no-cache                # recompute every cell
//	figures -cache-dir /tmp/rc       # result cache location
//	figures -progress                # per-cell progress/ETA on stderr
//
// Every experiment decomposes into independent deterministic cells (one
// simulated machine per (system, threads) pair) that are scheduled onto
// a host worker pool and memoized in a content-addressed result cache,
// so unchanged figures re-render instantly and interrupted runs resume.
// Parallel output is byte-identical to serial output.
//
// Experiments: fig1a fig1b fig1ro fig2a fig2b fig3a fig3b counter dcas
// divide inline treemap volano fig4 msfse profile attrib, the tail
// latency experiment tail (zipfian skew × system, percentile tables, see
// docs/WORKLOADS.md), the windowed-timeseries experiment timeline
// (pathology detectors + SLO burn rates, see docs/OBSERVABILITY.md), the
// sharded service-tier experiment fleet (router × batching × 2PC over
// the shard-count axis, see docs/SERVICE.md),
// plus the ablations ablate-retry (PhTM retry budget), ablate-ucti (UCTI
// failure weight), ablate-throttle (adaptive concurrency throttling
// extension), policy (retry policy × fault-injection profile, see
// docs/POLICY.md and docs/ABORT-PLAYBOOK.md), and the design-space sweep
// htmdesign (HTM design point × workload × retry policy, see
// docs/HTM-DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"rocktm/internal/bench"
	"rocktm/internal/obs"
	"rocktm/internal/obs/timeseries"
	"rocktm/internal/runner"
	"rocktm/internal/sim"
)

// experiment is one runnable entry; exactly one of fig/report/lines is
// produced by run.
type experiment struct {
	name string
	run  func() (*bench.Figure, error)
}

// experimentNames returns every valid -exp name, including the two
// non-figure reports, sorted so `-exp list` output is stable and
// scannable regardless of catalogue growth.
func experimentNames(experiments []experiment) []string {
	names := make([]string, 0, len(experiments)+2)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	names = append(names, "attrib", "profile")
	sort.Strings(names)
	return names
}

// parseExpFlag validates a comma-separated -exp value against the valid
// names, returning the selection set (nil means all). Unknown names are
// an error carrying the full valid list, so a typo never silently skips
// an experiment.
func parseExpFlag(value string, valid []string) (map[string]bool, error) {
	if value == "all" {
		return nil, nil
	}
	validSet := map[string]bool{}
	for _, n := range valid {
		validSet[n] = true
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(value, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !validSet[name] {
			return nil, fmt.Errorf("unknown experiment %q; valid names: %s", name, strings.Join(valid, " "))
		}
		selected[name] = true
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiments selected; valid names: %s", strings.Join(valid, " "))
	}
	return selected, nil
}

// cliFlags holds every command-line option. Registration happens on an
// explicit FlagSet so tests can assert the flag surface without parsing a
// real command line.
type cliFlags struct {
	exp      *string
	ops      *int
	threads  *string
	seed     *uint64
	csv      *bool
	latency  *bool
	json     *bool
	trace    *string
	timeline *string
	tlWindow *int64
	msfDim   *int
	profOps  *int
	cpuProf  *string
	memProf  *string
	parallel *int
	cacheDir *string
	noCache  *bool
	progress *bool
	cellTime *time.Duration
}

// registerFlags declares the full flag surface on fs.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		exp:      fs.String("exp", "all", "comma-separated experiment names, 'all', or 'list'"),
		ops:      fs.Int("ops", 4000, "operations per thread"),
		threads:  fs.String("threads", "1,2,3,4,6,8,12,16", "thread counts"),
		seed:     fs.Uint64("seed", 1, "experiment seed"),
		csv:      fs.Bool("csv", false, "also emit CSV rows"),
		latency:  fs.Bool("latency", false, "record per-operation latency and add p50/p90/p99/p99.9 columns to every workload-driven figure"),
		json:     fs.Bool("json", false, "also emit one JSON document per figure/report"),
		trace:    fs.String("trace", "", "write a Chrome trace_event JSON file of every timed run (forces serial, uncached cells)"),
		timeline: fs.String("timeline", "", "write the windowed timeseries of every timed run to this file (.csv for CSV, else JSON; forces serial, uncached cells)"),
		tlWindow: fs.Int64("timeline-window", 0, "timeseries window width in simulated cycles (0 = default)"),
		msfDim:   fs.Int("msf-dim", 96, "roadmap grid dimension (msf-dim x msf-dim vertices)"),
		profOps:  fs.Int("profile-ops", 1500, "operations for the Section 6.1 profile"),
		cpuProf:  fs.String("cpuprofile", "", "write a pprof CPU profile to this file (forces serial, uncached cells)"),
		memProf:  fs.String("memprofile", "", "write a pprof allocation profile to this file (forces serial, uncached cells)"),
		parallel: fs.Int("parallel", 0, "experiment-cell workers (0 = GOMAXPROCS, 1 = serial)"),
		cacheDir: fs.String("cache-dir", runner.DefaultCacheDir, "content-addressed result cache directory"),
		noCache:  fs.Bool("no-cache", false, "recompute every cell, ignoring and not writing the cache"),
		progress: fs.Bool("progress", false, "report per-cell progress and ETA on stderr"),
		cellTime: fs.Duration("cell-timeout", 0, "per-cell wall-clock budget; an over-budget cell fails alone (0 = none)"),
	}
}

func main() {
	fl := registerFlags(flag.CommandLine)
	flag.Parse()

	threads, err := validate(fl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}

	// Profiles only make sense on the serial, uncached path: pool workers
	// interleave cells and cache hits run nothing. stopProfiles is invoked
	// explicitly on the exit path (main exits via os.Exit inside a defer,
	// which would skip ordinary deferred profile flushes).
	stopProfiles := func() {}
	if *fl.cpuProf != "" || *fl.memProf != "" {
		if *fl.parallel != 1 || !*fl.noCache {
			fmt.Fprintln(os.Stderr, "figures: profiling forces serial, uncached cell execution")
		}
		*fl.parallel = 1
		*fl.noCache = true
		cpuPath, memPath := *fl.cpuProf, *fl.memProf
		if cpuPath != "" {
			f, err := os.Create(cpuPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(2)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(2)
			}
		}
		stopProfiles = func() {
			if cpuPath != "" {
				pprof.StopCPUProfile()
				fmt.Fprintf(os.Stderr, "figures: wrote CPU profile to %s (go tool pprof %s)\n", cpuPath, cpuPath)
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "figures:", err)
					return
				}
				runtime.GC() // flush the final heap state into the profile
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "figures:", err)
				}
				f.Close()
				fmt.Fprintf(os.Stderr, "figures: wrote allocation profile to %s\n", memPath)
			}
		}
	}

	// The orchestrator: worker pool + result cache + learned cost model.
	pool := &runner.Pool{Workers: *fl.parallel, Timeout: *fl.cellTime}
	if !*fl.noCache {
		cache, err := runner.OpenCache(*fl.cacheDir, runner.CacheVersion)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v (continuing uncached)\n", err)
		} else {
			pool.Cache = cache
			pool.Costs = runner.LoadCostModel(*fl.cacheDir)
		}
	}
	if *fl.progress {
		pool.OnProgress = func(pr runner.Progress) { fmt.Fprintln(os.Stderr, progressLine(pr)) }
	}

	o := bench.Options{Threads: threads, OpsPerThread: *fl.ops, Seed: *fl.seed, Runner: pool, Latency: *fl.latency, TimelineWindow: *fl.tlWindow}
	var sink *obs.TraceSink
	if *fl.trace != "" {
		sink = &obs.TraceSink{}
		o.Trace = sink
		if *fl.parallel != 1 {
			fmt.Fprintln(os.Stderr, "figures: -trace forces serial, uncached cell execution")
		}
	}
	var tlSink *timeseries.Sink
	if *fl.timeline != "" {
		tlSink = &timeseries.Sink{}
		o.Timeline = tlSink
		if *fl.parallel != 1 {
			fmt.Fprintln(os.Stderr, "figures: -timeline forces serial, uncached cell execution")
		}
	}
	mo := bench.MSFOptions{Width: *fl.msfDim, Height: *fl.msfDim, Threads: threads, Seed: *fl.seed, Runner: pool}
	if *fl.trace != "" {
		mo.Runner = nil // MSF cells are untraced; keep them serial too for reproducible trace files
	}

	experiments := buildExperiments(o, mo)
	valid := experimentNames(experiments)

	if *fl.exp == "list" {
		for _, n := range valid {
			fmt.Println(n)
		}
		return
	}
	selected, err := parseExpFlag(*fl.exp, valid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	all := selected == nil

	exitCode := 0
	defer func() {
		finishPool(pool)
		stopProfiles()
		os.Exit(exitCode)
	}()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
		exitCode = 1
	}

	for _, e := range experiments {
		if !all && !selected[e.name] {
			continue
		}
		fig, err := e.run()
		if err != nil {
			fail("figures: %s: %v\n", e.name, err)
			return
		}
		fig.Render(os.Stdout)
		if *fl.csv {
			fig.CSV(os.Stdout)
		}
		if *fl.json {
			if err := fig.JSON(os.Stdout); err != nil {
				fail("figures: %s: json: %v\n", e.name, err)
				return
			}
		}
	}
	if all || selected["attrib"] {
		rep, err := bench.AttributionReport(o)
		if err != nil {
			fail("figures: attrib: %v\n", err)
			return
		}
		rep.Render(os.Stdout)
		if *fl.csv {
			rep.CSV(os.Stdout)
		}
		if *fl.json {
			if err := rep.JSON(os.Stdout); err != nil {
				fail("figures: attrib: json: %v\n", err)
				return
			}
		}
	}
	if all || selected["profile"] {
		fmt.Println("== Section 6.1 transaction-failure analysis (single-thread PhTM vs STM replay) ==")
		for _, line := range bench.ProfileReport(*fl.profOps, nil) {
			fmt.Println(line)
		}
		fmt.Println()
	}
	if sink != nil {
		// When both -trace and -timeline are active, fold each run's window
		// series into its trace process as Perfetto counter tracks, so the
		// line charts render above the matching event timeline.
		if tlSink != nil {
			tlSink.Each(func(label string, s timeseries.Series) {
				sink.AddCounters(label, s.FreqGHz, s.CounterTracks())
			})
		}
		f, err := os.Create(*fl.trace)
		if err != nil {
			fail("figures: %v\n", err)
			return
		}
		if err := sink.WriteChrome(f); err != nil {
			fail("figures: trace: %v\n", err)
			return
		}
		if err := f.Close(); err != nil {
			fail("figures: trace: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "figures: wrote %d events from %d runs to %s (load in Perfetto / chrome://tracing)\n",
			sink.Events(), sink.Runs(), *fl.trace)
		if d := sink.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "figures: trace rings dropped %d older events (each run keeps the newest %d per strand)\n",
				d, obs.DefaultPerStrandEvents)
		}
	}
	if tlSink != nil {
		f, err := os.Create(*fl.timeline)
		if err != nil {
			fail("figures: %v\n", err)
			return
		}
		write := tlSink.WriteJSON
		if strings.HasSuffix(*fl.timeline, ".csv") {
			write = tlSink.WriteCSV
		}
		if werr := write(f); werr != nil {
			fail("figures: timeline: %v\n", werr)
			return
		}
		if err := f.Close(); err != nil {
			fail("figures: timeline: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "figures: wrote window series of %d runs to %s\n", tlSink.Runs(), *fl.timeline)
	}
}

// buildExperiments assembles the full figure catalogue in display order.
// Factored out of main so tests can assert the catalogue (and therefore
// -exp list and the unknown-name error) includes every documented name.
func buildExperiments(o bench.Options, mo bench.MSFOptions) []experiment {
	return []experiment{
		{"counter", func() (*bench.Figure, error) { return bench.CounterFigure(o) }},
		{"dcas", func() (*bench.Figure, error) { return bench.DCASFigure(o) }},
		{"fig1a", func() (*bench.Figure, error) { return bench.Fig1a(o) }},
		{"fig1b", func() (*bench.Figure, error) { return bench.Fig1b(o) }},
		{"fig1ro", func() (*bench.Figure, error) { return bench.Fig1ReadOnly(o) }},
		{"fig2a", func() (*bench.Figure, error) { return bench.Fig2a(o) }},
		{"fig2b", func() (*bench.Figure, error) { return bench.Fig2b(o) }},
		{"fig3a", func() (*bench.Figure, error) { return bench.Fig3a(o) }},
		{"fig3b", func() (*bench.Figure, error) { return bench.Fig3b(o) }},
		{"divide", func() (*bench.Figure, error) { return bench.DivideHashDemo(o) }},
		{"inline", func() (*bench.Figure, error) { return bench.InlineDemo(o) }},
		{"treemap", func() (*bench.Figure, error) { return bench.TreeMapDemo(o) }},
		{"volano", func() (*bench.Figure, error) { return bench.VolanoFigure(o) }},
		{"tail", func() (*bench.Figure, error) { return bench.TailFigure(o) }},
		{"timeline", func() (*bench.Figure, error) { return bench.TimelineFigure(o) }},
		{"fleet", func() (*bench.Figure, error) { return bench.FleetFigure(o) }},
		{"fig4", func() (*bench.Figure, error) { return bench.Fig4(mo) }},
		{"msfse", func() (*bench.Figure, error) { return bench.SEModeMSF(mo) }},
		{"ablate-retry", func() (*bench.Figure, error) { return bench.AblationRetryBudget(o) }},
		{"ablate-ucti", func() (*bench.Figure, error) { return bench.AblationUCTIWeight(o) }},
		{"ablate-throttle", func() (*bench.Figure, error) { return bench.AblationThrottle(o) }},
		{"policy", func() (*bench.Figure, error) { return bench.PolicyFigure(o) }},
		{"htmdesign", func() (*bench.Figure, error) { return bench.HTMDesignFigure(o) }},
	}
}

// progressLine formats one -progress report. The benchmark harness
// parses these lines (done/total cells ... last=), so the layout is fixed.
func progressLine(pr runner.Progress) string {
	line := fmt.Sprintf("figures: %d/%d cells (%d cached", pr.Done, pr.Total, pr.Cached)
	if pr.Failed > 0 {
		line += fmt.Sprintf(", %d failed", pr.Failed)
	}
	eta := time.Duration(pr.ETASeconds*1000) * time.Millisecond
	return line + fmt.Sprintf(") eta %s  last=%s", eta.Round(time.Second), pr.Last)
}

// finishPool persists the learned cost model and surfaces any cache
// warnings (corrupted entries fell back to recompute).
func finishPool(pool *runner.Pool) {
	if pool.Costs != nil {
		if err := pool.Costs.Save(); err != nil {
			fmt.Fprintf(os.Stderr, "figures: cost model: %v\n", err)
		}
	}
	if pool.Cache != nil {
		for _, w := range pool.Cache.Warnings() {
			fmt.Fprintf(os.Stderr, "figures: %s\n", w)
		}
	}
}

// validate checks every numeric flag before any cell runs, so out-of-range
// input is a usage error rather than a panic deep inside a simulated
// machine or a figure of zeros. It returns the parsed thread counts.
func validate(fl *cliFlags) ([]int, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"ops", *fl.ops}, {"msf-dim", *fl.msfDim}, {"profile-ops", *fl.profOps}} {
		if f.v <= 0 {
			return nil, fmt.Errorf("-%s must be positive, got %d", f.name, f.v)
		}
	}
	// Zero keeps its documented meaning for these three; a negative value
	// would otherwise fall through to that meaning silently.
	if *fl.parallel < 0 {
		return nil, fmt.Errorf("-parallel must not be negative, got %d (0 = GOMAXPROCS)", *fl.parallel)
	}
	if *fl.cellTime < 0 {
		return nil, fmt.Errorf("-cell-timeout must not be negative, got %v (0 = none)", *fl.cellTime)
	}
	if *fl.tlWindow < 0 {
		return nil, fmt.Errorf("-timeline-window must not be negative, got %d (0 = default)", *fl.tlWindow)
	}
	return parseThreads(*fl.threads)
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 || n > sim.MaxStrands {
			return nil, fmt.Errorf("bad thread count %q (want 1..%d)", part, sim.MaxStrands)
		}
		out = append(out, n)
	}
	return out, nil
}
