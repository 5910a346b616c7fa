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
		trace:    fs.String("trace", "", "write a Chrome trace_event JSON file with one run per cell of each experiment that captures (see bench.Catalogue), labelled experiment/curve@NT (forces serial, uncached cells)"),
		timeline: fs.String("timeline", "", "write the windowed timeseries of the same cells, under the same labels, to this file (.csv for CSV, else JSON; forces serial, uncached cells)"),
		tlWindow: fs.Int64("timeline-window", 0, "timeseries window width in simulated cycles (0 = default, else at least 256)"),
		msfDim:   fs.Int("msf-dim", 96, "roadmap grid dimension (msf-dim x msf-dim vertices)"),
		profOps:  fs.Int("profile-ops", 1500, "operations for the Section 6.1 profile"),
		cpuProf:  fs.String("cpuprofile", "", "write a pprof CPU profile to this file (forces serial, uncached cells)"),
		memProf:  fs.String("memprofile", "", "write a pprof allocation profile to this file (forces serial, uncached cells)"),
		parallel: fs.Int("parallel", 0, "experiment-cell workers (0 = GOMAXPROCS, 1 = serial)"),
		cacheDir: fs.String("cache-dir", runner.DefaultCacheDir, "content-addressed result cache directory"),
		noCache:  fs.Bool("no-cache", false, "recompute every cell, ignoring and not writing the cache"),
		progress: fs.Bool("progress", false, "report per-cell progress on stderr"),
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

	if forceSerial(fl) {
		fmt.Fprintln(os.Stderr, "figures: -cpuprofile, -memprofile, -trace and -timeline force serial, uncached cell execution")
	}

	// stopProfiles is invoked explicitly on the exit path (main exits via
	// os.Exit inside a defer, which would skip ordinary deferred profile
	// flushes).
	stopProfiles := func() {}
	if *fl.cpuProf != "" || *fl.memProf != "" {
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

	// The orchestrator: worker pool + result cache.
	pool := &runner.Pool{Workers: *fl.parallel}
	if !*fl.noCache {
		cache, err := runner.OpenCache(*fl.cacheDir, runner.CacheVersion)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v (continuing uncached)\n", err)
		} else {
			pool.Cache = cache
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
	}
	var tlSink *timeseries.Sink
	if *fl.timeline != "" {
		tlSink = &timeseries.Sink{}
		o.Timeline = tlSink
	}
	mo := bench.MSFOptions{Width: *fl.msfDim, Height: *fl.msfDim, Threads: threads, Seed: *fl.seed, Runner: pool}

	valid := experimentNames()

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
		if pool.Cache != nil {
			// Corrupted entries fell back to recompute; say which.
			for _, w := range pool.Cache.Warnings() {
				fmt.Fprintf(os.Stderr, "figures: %s\n", w)
			}
		}
		stopProfiles()
		os.Exit(exitCode)
	}()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
		exitCode = 1
	}

	for _, e := range bench.Catalogue {
		if !all && !selected[e.Name] {
			continue
		}
		rep, err := e.Run(o, mo, *fl.profOps)
		if err != nil {
			fail("figures: %s: %v\n", e.Name, err)
			return
		}
		rep.Render(os.Stdout)
		if *fl.csv {
			rep.CSV(os.Stdout)
		}
		if *fl.json {
			if err := rep.JSON(os.Stdout); err != nil {
				fail("figures: %s: json: %v\n", e.Name, err)
				return
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
	if err := bench.CheckMSFGrid(*fl.msfDim, *fl.msfDim, bench.MSFOptions{}.Defaults().Extra); err != nil {
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
