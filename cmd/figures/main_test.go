package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"rocktm/internal/bench"
	"rocktm/internal/obs"
	"rocktm/internal/obs/timeseries"
	"rocktm/internal/runner"
)

var testValid = []string{"fig1a", "fig2b", "attrib", "profile"}

// A typo in -exp must be rejected with the full valid list, never
// silently skipped.
func TestParseExpFlagRejectsUnknown(t *testing.T) {
	_, err := parseExpFlag("fig1a,fgi2b", testValid)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"fgi2b"`) {
		t.Errorf("error does not name the bad experiment: %s", msg)
	}
	for _, name := range testValid {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list valid name %q: %s", name, msg)
		}
	}
}

func TestParseExpFlagSelection(t *testing.T) {
	sel, err := parseExpFlag("fig1a, attrib", testValid)
	if err != nil {
		t.Fatal(err)
	}
	if !sel["fig1a"] || !sel["attrib"] || sel["fig2b"] {
		t.Fatalf("bad selection: %v", sel)
	}
	if all, err := parseExpFlag("all", testValid); err != nil || all != nil {
		t.Fatalf("-exp all: sel=%v err=%v", all, err)
	}
	if _, err := parseExpFlag(",", testValid); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// documentedNames is what -exp list prints: every experiment the paper
// reproduction and its extensions document, Table 1, the attribution
// report and the profile among them, each once and sorted.
var documentedNames = []string{
	"ablate-retry", "ablate-throttle", "ablate-ucti", "attrib", "counter",
	"dcas", "divide", "fig1a", "fig1b", "fig1ro", "fig2a", "fig2b", "fig3a",
	"fig3b", "fig4", "fleet", "htmdesign", "inline", "msfse", "policy",
	"profile", "table1", "tail", "timeline", "treemap", "volano",
}

// -exp list is exactly the documented names: a catalogue row dropped,
// added or repeated changes it, so none of them can happen unnoticed.
func TestExperimentNamesIncludeReports(t *testing.T) {
	if got := experimentNames(); !slices.Equal(got, documentedNames) {
		t.Errorf("-exp list is %v, want %v", got, documentedNames)
	}
}

// acceptsAndSuggests checks that -exp list is sorted, that -exp name
// selects the experiment and that the typo is rejected with an error that
// enumerates it, so users discover it from a typo.
func acceptsAndSuggests(t *testing.T, name, typo string) {
	t.Helper()
	valid := experimentNames()
	if !sort.StringsAreSorted(valid) {
		t.Errorf("-exp list is not sorted: %v", valid)
	}
	if sel, err := parseExpFlag(name, valid); err != nil || !sel[name] {
		t.Fatalf("-exp %s rejected: sel=%v err=%v", name, sel, err)
	}
	if _, err := parseExpFlag(typo, valid); err == nil {
		t.Fatalf("unknown experiment %q accepted", typo)
	} else if !strings.Contains(err.Error(), name) {
		t.Errorf("unknown-experiment error does not enumerate %s: %v", name, err)
	}
}

// The tail latency, timeline, fleet and htmdesign experiments are in the
// catalogue.
func TestCatalogueIncludesTail(t *testing.T) { acceptsAndSuggests(t, "tail", "tial") }

func TestCatalogueIncludesTimelineAndIsSorted(t *testing.T) {
	acceptsAndSuggests(t, "timeline", "timelien")
}

func TestCatalogueIncludesFleet(t *testing.T) { acceptsAndSuggests(t, "fleet", "fleeet") }

func TestCatalogueIncludesHTMDesign(t *testing.T) { acceptsAndSuggests(t, "htmdesign", "htmdeisgn") }

// The flag surface carries the timeline exports: -timeline selects the
// output file, -timeline-window the window width.
func TestFlagSurfaceCarriesTimeline(t *testing.T) {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fl := registerFlags(fs)
	for _, name := range []string{"exp", "trace", "timeline", "timeline-window", "latency", "parallel"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if err := fs.Parse([]string{"-timeline", "w.csv", "-timeline-window", "4096"}); err != nil {
		t.Fatal(err)
	}
	if *fl.timeline != "w.csv" || *fl.tlWindow != 4096 {
		t.Errorf("parsed timeline=%q window=%d", *fl.timeline, *fl.tlWindow)
	}
}

// Out-of-range numeric flags are usage errors naming the flag, caught
// before any cell runs: a thread count past sim.MaxStrands used to panic
// inside a cell, non-positive sizes used to print empty or all-zero
// figures, and -seed 0 used to print seed 1's figures. Negative -parallel
// and -timeline-window are rejected; zero keeps its documented meaning. A
// window narrower than timeseries.MinWidth is rejected too: the recorder
// would widen it silently while the cache keys named the narrower width.
// A repeated thread count is rejected: it used to submit every cell twice,
// printing one table row but two CSV and JSON points per curve. The strand
// scheduler and a wall-clock cell budget are not command-line choices:
// -sched and -cell-timeout are unknown flags. An -msf-dim whose roadmap
// needs more simulated memory than a machine can have is rejected before
// any graph is generated.
func TestInvalidFlagsRejected(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error; "" means valid
	}{
		{nil, ""},
		{[]string{"-threads", "1,64"}, ""},
		{[]string{"-threads", "65"}, `"65"`},
		{[]string{"-threads", "2,0"}, `"0"`},
		{[]string{"-threads", "-3"}, `"-3"`},
		{[]string{"-threads", "two"}, `"two"`},
		{[]string{"-threads", "2,2"}, "repeated"},
		{[]string{"-threads", "1,2, 1"}, "repeated"},
		{[]string{"-threads", "4,1"}, ""},
		{[]string{"-ops", "-5"}, "-ops"},
		{[]string{"-ops", "0"}, "-ops"},
		{[]string{"-msf-dim", "0"}, "-msf-dim"},
		{[]string{"-msf-dim", "-4"}, "-msf-dim"},
		{[]string{"-msf-dim", "8192"}, "-msf-dim 8192"},
		{[]string{"-profile-ops", "0"}, "-profile-ops"},
		{[]string{"-seed", "2"}, ""},
		{[]string{"-seed", "0"}, "-seed"},
		{[]string{"-parallel", "0", "-timeline-window", "0"}, ""},
		{[]string{"-parallel", "-3"}, "-parallel"},
		{[]string{"-timeline-window", "-5", "-timeline", "f.json"}, "-timeline-window"},
		{[]string{"-timeline-window", "1"}, "256"},
		{[]string{"-timeline-window", "100", "-exp", "timeline"}, "256"},
		{[]string{"-timeline-window", "255", "-timeline", "f.json"}, "256"},
		{[]string{"-timeline-window", "256"}, ""},
		{[]string{"-sched", "step"}, "-sched"},
		{[]string{"-cell-timeout", "1s"}, "-cell-timeout"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("figures", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fl := registerFlags(fs)
		var threads []int
		err := fs.Parse(c.args)
		if err == nil {
			threads, err = validate(fl)
		}
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v rejected: %v", c.args, err)
		case c.want == "" && len(threads) == 0:
			t.Errorf("%v: no thread counts parsed", c.args)
		case c.want != "" && err == nil:
			t.Errorf("%v accepted", c.args)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%v: error %q does not name %s", c.args, err, c.want)
		}
	}
}

// Listing the experiments and rejected input write nothing to the working
// directory: the result cache, which creates -cache-dir, used to be opened
// before -exp was read, so -exp list and an unknown name each left an
// empty .rockcache/ behind. The command's exit status and output are
// checked too.
func TestListAndRejectedInputLeaveNoFiles(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, c := range []struct {
		args   []string
		status int
		stdout string
		stderr string
	}{
		{[]string{"-exp", "list"}, 0, strings.Join(documentedNames, "\n") + "\n", ""},
		{[]string{"-exp", "no-such-experiment"}, 2, "", `unknown experiment "no-such-experiment"`},
		{[]string{"-exp", ","}, 2, "", "no experiments selected"},
		{[]string{"-exp", "fig1a", "-ops", "0", "-cpuprofile", "c.pprof"}, 2, "", "-ops"},
		{[]string{"-no-such-flag"}, 2, "", "-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(c.args, &stdout, &stderr); got != c.status {
			t.Errorf("%v: exit status %d, want %d (stderr %q)", c.args, got, c.status, stderr.String())
		}
		if stdout.String() != c.stdout {
			t.Errorf("%v: stdout %q, want %q", c.args, stdout.String(), c.stdout)
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%v: stderr %q does not name %s", c.args, stderr.String(), c.stderr)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("%v left %s in the working directory", c.args, e.Name())
		}
	}
}

// The -progress line layout is an interface: the repository benchmark
// derives its per-cell timings from lines matching this pattern.
var progressPattern = regexp.MustCompile(`^figures: \d+/\d+ cells .* last=`)

func TestProgressLine(t *testing.T) {
	last := runner.Spec{Experiment: "fig2a", System: "phtm", Threads: 4}
	for _, c := range []struct {
		pr   runner.Progress
		want string
	}{
		{runner.Progress{Total: 12, Done: 3, Cached: 1, Last: last},
			"figures: 3/12 cells (1 cached) last=fig2a/phtm@4T"},
		{runner.Progress{Total: 12, Done: 5, Failed: 2, Last: last},
			"figures: 5/12 cells (0 cached, 2 failed) last=fig2a/phtm@4T"},
		{runner.Progress{Total: 40, Done: 40, Cached: 40, Last: last},
			"figures: 40/40 cells (40 cached) last=fig2a/phtm@4T"},
	} {
		got := progressLine(c.pr)
		if got != c.want {
			t.Errorf("progressLine(%+v) = %q, want %q", c.pr, got, c.want)
		}
		if !progressPattern.MatchString(got) {
			t.Errorf("%q does not match the benchmark's progress pattern", got)
		}
	}
}

// Profiles, traces and window series all force serial, uncached cells
// through one rule, which reports only when it overrides the command line.
func TestSerialFlagsForceSerialUncached(t *testing.T) {
	for _, c := range []struct {
		args     []string
		forced   bool
		overrode bool
	}{
		{nil, false, false},
		{[]string{"-parallel", "4"}, false, false},
		{[]string{"-cpuprofile", "c.pprof"}, true, true},
		{[]string{"-memprofile", "m.pprof", "-parallel", "1"}, true, true},
		{[]string{"-trace", "t.json", "-no-cache"}, true, true},
		{[]string{"-timeline", "w.json", "-parallel", "4", "-no-cache"}, true, true},
		{[]string{"-trace", "t.json", "-timeline", "w.json", "-parallel", "1", "-no-cache"}, true, false},
	} {
		fs := flag.NewFlagSet("figures", flag.ContinueOnError)
		fl := registerFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		parallel, noCache := *fl.parallel, *fl.noCache
		if got := forceSerial(fl); got != c.overrode {
			t.Errorf("%v: forceSerial reported %v, want %v", c.args, got, c.overrode)
		}
		if c.forced && (*fl.parallel != 1 || !*fl.noCache) {
			t.Errorf("%v: -parallel %d -no-cache=%v, want serial and uncached", c.args, *fl.parallel, *fl.noCache)
		}
		if !c.forced && (*fl.parallel != parallel || *fl.noCache != noCache) {
			t.Errorf("%v: flags changed without a forcing flag", c.args)
		}
	}
}

// -trace and -timeline capture every single-machine cell: each catalogue
// row but table1 and profile (no cells), fig4 and msfse (the MSF runner)
// and fleet (many machines per cell) deposits one event trace and one
// window series per cell, labelled with the cell's name,
// experiment/curve@NT, and those five deposit nothing. The test runs the
// whole catalogue, so a new experiment is covered without being listed
// here.
func TestCaptureCoversEveryCell(t *testing.T) {
	const ops = 10
	trace, windows := &obs.TraceSink{}, &timeseries.Sink{}
	o := bench.Options{Threads: []int{1, 2}, OpsPerThread: ops, Seed: 1, MSFDim: 12, ProfileOps: ops, Trace: trace, Timeline: windows}
	var want []string
	threads := map[string]int{}
	cell := func(exp, curve string, th int) {
		label := fmt.Sprintf("%s/%s@%dT", exp, curve, th)
		if threads[label] != 0 {
			t.Errorf("two cells share the name %s", label)
		}
		want = append(want, label)
		threads[label] = th
	}
	uncaptured := map[string]bool{"table1": true, "profile": true, "fig4": true, "msfse": true, "fleet": true}
	for _, e := range bench.Catalogue {
		rep, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if uncaptured[e.Name] {
			continue
		}
		switch rep := rep.(type) {
		case *bench.Figure:
			for _, c := range rep.Curves {
				for _, p := range c.Points {
					cell(e.Name, c.Name, p.Threads)
				}
			}
		case *bench.AttribReport:
			for _, row := range rep.Rows {
				cell(e.Name, row.System, row.Threads)
			}
		default:
			t.Fatalf("%s: no cells known for a %T", e.Name, rep)
		}
	}

	var got []string
	windows.Each(func(label string, s timeseries.Series) {
		got = append(got, label)
		var n uint64
		for _, w := range s.Windows {
			n += w.Ops
		}
		if th := threads[label]; th != 0 && n != uint64(th*ops) {
			t.Errorf("window series %s holds %d ops, want %d", label, n, th*ops)
		}
	})
	sameLabels(t, "window series", got, want)

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Args     struct{ Name string }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	got = nil
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			got = append(got, ev.Args.Name)
		}
	}
	sameLabels(t, "trace runs", got, want)
}

// A warm rerun of the whole catalogue serves every cell from the cache.
// It is the one test that sends every payload type (Point, fleetPoint,
// attribCell, timelinePoint, the MSF sweep's) through the single decode
// a cache hit makes: the figures, CSV and JSON must match the cold run's
// byte for byte, with every cell cached and no warning. Table 1 and the
// profile have no cells; they recompute the same bytes.
func TestWarmCacheServesEveryCell(t *testing.T) {
	dir := t.TempDir()
	threads := []int{1, 2}
	render := func() ([]byte, runner.Progress, []string) {
		cache, err := runner.OpenCache(dir, runner.CacheVersion)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var last runner.Progress
		pool := &runner.Pool{Workers: 2, Cache: cache, OnProgress: func(pr runner.Progress) {
			mu.Lock()
			if pr.Done > last.Done {
				last = pr
			}
			mu.Unlock()
		}}
		o := bench.Options{Threads: threads, OpsPerThread: 20, Seed: 1, MSFDim: 32, ProfileOps: 20, Runner: pool}
		var buf bytes.Buffer
		for _, e := range bench.Catalogue {
			rep, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			rep.Render(&buf)
			rep.CSV(&buf)
			if err := rep.JSON(&buf); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
		return buf.Bytes(), last, cache.Warnings()
	}

	cold, coldProg, coldWarns := render()
	if coldProg.Total == 0 || coldProg.Done != coldProg.Total || coldProg.Cached != 0 || len(coldWarns) != 0 {
		t.Fatalf("cold run: progress %+v, warnings %v; want every cell computed", coldProg, coldWarns)
	}
	warm, warmProg, warmWarns := render()
	if warmProg.Total != coldProg.Total || warmProg.Done != warmProg.Total || warmProg.Cached != warmProg.Total {
		t.Errorf("warm run: %d/%d cells (%d cached), want all %d cached",
			warmProg.Done, warmProg.Total, warmProg.Cached, coldProg.Total)
	}
	for _, w := range warmWarns {
		t.Errorf("warm run warned: %s", w)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm output (%d bytes) differs from cold output (%d bytes)", len(warm), len(cold))
	}
}

// sameLabels checks that the deposits carry exactly the cells' names, in
// cell order, and reports any mismatch per experiment.
func sameLabels(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	set := func(labels []string) map[string]bool {
		m := map[string]bool{}
		for _, l := range labels {
			m[l] = true
		}
		return m
	}
	report := func(kind string, labels []string, other map[string]bool) bool {
		var exps []string
		byExp := map[string][]string{}
		for _, l := range labels {
			if other[l] {
				continue
			}
			exp, _, _ := strings.Cut(l, "/")
			if byExp[exp] == nil {
				exps = append(exps, exp)
			}
			byExp[exp] = append(byExp[exp], l)
		}
		for _, exp := range exps {
			t.Errorf("%s: %s %d labels of %q, first %q", what, kind, len(byExp[exp]), exp, byExp[exp][0])
		}
		return len(exps) > 0
	}
	missing := report("no deposit for", want, set(got))
	extra := report("deposit under", got, set(want))
	if !missing && !extra {
		t.Errorf("%s: deposited out of cell order", what)
	}
}
