// Command figures regenerates every figure and table of the paper's
// evaluation on the simulated Rock machine.
//
// Usage:
//
//	figures -exp all                 # everything (parallel across host cores)
//	figures -exp list                # list valid experiment names
//	figures -exp fig1a,fig2b         # selected experiments
//	figures -exp table1 -ops 200     # Section 3's CPS tests, 200 attempts each
//	figures -exp fig4 -msf-dim 128   # a bigger roadmap
//	figures -ops 20000               # more operations per thread
//	figures -csv                     # machine-readable output too
//	figures -json                    # one JSON document per figure
//	figures -latency -exp fig2b      # add p50/p90/p99/p99.9 to any figure
//	figures -exp fig1a -trace t.json # Chrome/Perfetto event trace, one run per cell
//	figures -exp tail -timeline w.json    # window series, one per cell
//	figures -timeline-window 16384   # window width in simulated cycles
//	figures -parallel 8              # worker-pool size (0 = GOMAXPROCS)
//	figures -no-cache                # recompute every cell
//	figures -cache-dir /tmp/rc       # result cache location
//	figures -progress                # per-cell progress on stderr
//
// The experiments, and which of them -trace and -timeline capture, are
// the rows of bench.Catalogue (internal/bench/catalogue.go); -exp list
// prints their names.
//
// Every experiment decomposes into independent deterministic cells (one
// simulated machine per (system, threads) pair) that are scheduled onto
// a host worker pool and memoized in a content-addressed result cache,
// so unchanged figures re-render instantly and interrupted runs resume.
// Parallel output is byte-identical to serial output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rocktm/internal/bench"
	"rocktm/internal/obs"
	"rocktm/internal/obs/timeseries"
	"rocktm/internal/runner"
	"rocktm/internal/sim"
)

// experimentNames returns every valid -exp name, the catalogue's, sorted
// so that -exp list is stable and scannable.
func experimentNames() []string {
	names := make([]string, len(bench.Catalogue))
	for i, e := range bench.Catalogue {
		names[i] = e.Name
	}
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
}

// registerFlags declares the full flag surface on fs. The experiment
// flags' defaults are bench.Options' defaults.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	d := bench.Options{}.Defaults()
	threads := make([]string, len(d.Threads))
	for i, n := range d.Threads {
		threads[i] = strconv.Itoa(n)
	}
	return &cliFlags{
		exp:      fs.String("exp", "all", "comma-separated experiment names, 'all', or 'list'"),
		ops:      fs.Int("ops", d.OpsPerThread, "operations per thread (table1: attempts per scenario)"),
		threads:  fs.String("threads", strings.Join(threads, ","), "thread counts"),
		seed:     fs.Uint64("seed", d.Seed, "experiment seed"),
		csv:      fs.Bool("csv", false, "also emit CSV rows"),
		latency:  fs.Bool("latency", false, "record per-operation latency and add p50/p90/p99/p99.9 columns to every workload-driven figure"),
		json:     fs.Bool("json", false, "also emit one JSON document per figure/report"),
		trace:    fs.String("trace", "", "write a Chrome trace_event JSON file with one run per cell of each experiment that captures (see bench.Catalogue), labelled experiment/curve@NT (forces serial, uncached cells)"),
		timeline: fs.String("timeline", "", "write the windowed timeseries of the same cells, under the same labels, to this file (.csv for CSV, else JSON; forces serial, uncached cells)"),
		tlWindow: fs.Int64("timeline-window", 0, "timeseries window width in simulated cycles (0 = default, else at least 256)"),
		msfDim:   fs.Int("msf-dim", d.MSFDim, "roadmap grid dimension (msf-dim x msf-dim vertices)"),
		profOps:  fs.Int("profile-ops", d.ProfileOps, "operations for the Section 6.1 profile"),
		cpuProf:  fs.String("cpuprofile", "", "write a pprof CPU profile to this file (forces serial, uncached cells)"),
		memProf:  fs.String("memprofile", "", "write a pprof allocation profile to this file (forces serial, uncached cells)"),
		parallel: fs.Int("parallel", 0, "experiment-cell workers (0 = GOMAXPROCS, 1 = serial)"),
		cacheDir: fs.String("cache-dir", runner.DefaultCacheDir, "content-addressed result cache directory"),
		noCache:  fs.Bool("no-cache", false, "recompute every cell, ignoring and not writing the cache"),
		progress: fs.Bool("progress", false, "report per-cell progress on stderr"),
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the selected experiments'
// reports to stdout and diagnostics to stderr, and returns the exit
// status — 2 for a usage error, 1 for a failed experiment or output file.
// It opens the result cache only once the selection is valid and names
// at least one experiment, so -exp list and rejected input leave no
// cache directory behind.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fl := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	threads, err := validate(fl)
	if err != nil {
		fmt.Fprintln(stderr, "figures:", err)
		return 2
	}
	valid := experimentNames()
	if *fl.exp == "list" {
		for _, n := range valid {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	selected, err := parseExpFlag(*fl.exp, valid)
	if err != nil {
		fmt.Fprintln(stderr, "figures:", err)
		return 2
	}

	if forceSerial(fl) {
		fmt.Fprintln(stderr, "figures: -cpuprofile, -memprofile, -trace and -timeline force serial, uncached cell execution")
	}
	// Deferred calls run last first: the CPU profile stops before the
	// final heap is written.
	if *fl.memProf != "" {
		defer writeHeapProfile(*fl.memProf, stderr)
	}
	if *fl.cpuProf != "" {
		f, err := os.Create(*fl.cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "figures:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "figures:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			fmt.Fprintf(stderr, "figures: wrote CPU profile to %s (go tool pprof %s)\n", *fl.cpuProf, *fl.cpuProf)
		}()
	}

	// The orchestrator: worker pool + result cache.
	pool := &runner.Pool{Workers: *fl.parallel}
	if !*fl.noCache {
		cache, err := runner.OpenCache(*fl.cacheDir, runner.CacheVersion)
		if err != nil {
			fmt.Fprintf(stderr, "figures: %v (continuing uncached)\n", err)
		} else {
			pool.Cache = cache
			// Corrupted entries fell back to recompute; say which.
			defer func() {
				for _, w := range cache.Warnings() {
					fmt.Fprintf(stderr, "figures: %s\n", w)
				}
			}()
		}
	}
	if *fl.progress {
		pool.OnProgress = func(pr runner.Progress) { fmt.Fprintln(stderr, progressLine(pr)) }
	}

	o := bench.Options{
		Threads: threads, OpsPerThread: *fl.ops, Seed: *fl.seed, MSFDim: *fl.msfDim, ProfileOps: *fl.profOps,
		Runner: pool, Latency: *fl.latency, TimelineWindow: *fl.tlWindow,
	}
	var sink *obs.TraceSink
	if *fl.trace != "" {
		sink = &obs.TraceSink{}
		o.Trace = sink
	}
	var tlSink *timeseries.Sink
	if *fl.timeline != "" {
		tlSink = &timeseries.Sink{}
		o.Timeline = tlSink
	}

	for _, e := range bench.Catalogue {
		if selected != nil && !selected[e.Name] {
			continue
		}
		rep, err := e.Run(o)
		if err != nil {
			fmt.Fprintf(stderr, "figures: %s: %v\n", e.Name, err)
			return 1
		}
		rep.Render(stdout)
		if *fl.csv {
			rep.CSV(stdout)
		}
		if *fl.json {
			if err := rep.JSON(stdout); err != nil {
				fmt.Fprintf(stderr, "figures: %s: json: %v\n", e.Name, err)
				return 1
			}
		}
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
		if err := writeFile(*fl.trace, sink.WriteChrome); err != nil {
			fmt.Fprintf(stderr, "figures: trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "figures: wrote %d events from %d runs to %s (load in Perfetto / chrome://tracing)\n",
			sink.Events(), sink.Runs(), *fl.trace)
	}
	if tlSink != nil {
		write := tlSink.WriteJSON
		if strings.HasSuffix(*fl.timeline, ".csv") {
			write = tlSink.WriteCSV
		}
		if err := writeFile(*fl.timeline, write); err != nil {
			fmt.Fprintf(stderr, "figures: timeline: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "figures: wrote window series of %d runs to %s\n", tlSink.Runs(), *fl.timeline)
	}
	return 0
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeHeapProfile writes a pprof allocation profile of the final heap to
// path.
func writeHeapProfile(path string, stderr io.Writer) {
	runtime.GC() // flush the final heap state into the profile
	if err := writeFile(path, pprof.WriteHeapProfile); err != nil {
		fmt.Fprintln(stderr, "figures:", err)
		return
	}
	fmt.Fprintf(stderr, "figures: wrote allocation profile to %s\n", path)
}

// progressLine formats one -progress report. The benchmark harness
// parses these lines (done/total cells ... last=), so the layout is fixed.
func progressLine(pr runner.Progress) string {
	line := fmt.Sprintf("figures: %d/%d cells (%d cached", pr.Done, pr.Total, pr.Cached)
	if pr.Failed > 0 {
		line += fmt.Sprintf(", %d failed", pr.Failed)
	}
	return line + ") last=" + pr.Last.String()
}

// forceSerial is the one rule for the flags whose output needs every
// cell computed on one worker, in submission order: CPU and allocation
// profiles, traces and window series. Pool workers would interleave
// cells, and a cache hit computes nothing to sample or record. It
// reports whether it overrode -parallel or -no-cache.
func forceSerial(fl *cliFlags) bool {
	if *fl.cpuProf == "" && *fl.memProf == "" && *fl.trace == "" && *fl.timeline == "" {
		return false
	}
	overrode := *fl.parallel != 1 || !*fl.noCache
	*fl.parallel, *fl.noCache = 1, true
	return overrode
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
	if err := bench.CheckMSFGrid(*fl.msfDim, *fl.msfDim, bench.MSFExtra); err != nil {
		return nil, fmt.Errorf("-msf-dim %d: %w", *fl.msfDim, err)
	}
	// The experiments read seed 0 as "use seed 1", so it would silently
	// print another seed's figures.
	if *fl.seed == 0 {
		return nil, fmt.Errorf("-seed must be positive, got 0")
	}
	// Zero keeps its documented meaning for these two; a negative value
	// would otherwise fall through to that meaning silently.
	if *fl.parallel < 0 {
		return nil, fmt.Errorf("-parallel must not be negative, got %d (0 = GOMAXPROCS)", *fl.parallel)
	}
	// The recorder would clamp a narrower window up to MinWidth while the
	// cache keys of the timeline and fleet cells named the width asked for.
	if w := *fl.tlWindow; w < 0 || (w > 0 && w < timeseries.MinWidth) {
		return nil, fmt.Errorf("-timeline-window must be 0 (default) or at least %d (timeseries.MinWidth), got %d", timeseries.MinWidth, w)
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
		if slices.Contains(out, n) {
			// A repeat would submit every cell twice: one table row per
			// count, but two CSV and JSON points per curve.
			return nil, fmt.Errorf("repeated thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
