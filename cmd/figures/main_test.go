package main

import (
	"flag"
	"io"
	"regexp"
	"sort"
	"strings"
	"testing"

	"rocktm/internal/bench"
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

// Every name the command documents must be accepted, and the reports
// must be included in the valid list.
func TestExperimentNamesIncludeReports(t *testing.T) {
	names := experimentNames([]experiment{{name: "fig1a"}, {name: "fig4"}})
	got := strings.Join(names, " ")
	for _, want := range []string{"fig1a", "fig4", "attrib", "profile"} {
		if !strings.Contains(got, want) {
			t.Errorf("experimentNames missing %q: %v", want, names)
		}
	}
}

// The real catalogue (what -exp list prints) must carry the tail latency
// experiment alongside the legacy figures, and the unknown-name error must
// enumerate it so users discover it from a typo.
func TestCatalogueIncludesTail(t *testing.T) {
	valid := experimentNames(buildExperiments(bench.Options{}, bench.MSFOptions{}))
	set := map[string]bool{}
	for _, n := range valid {
		set[n] = true
	}
	for _, want := range []string{"tail", "fig1a", "fig4", "policy", "attrib", "profile"} {
		if !set[want] {
			t.Errorf("experiment catalogue missing %q: %v", want, valid)
		}
	}
	if _, err := parseExpFlag("tial", valid); err == nil {
		t.Fatal("unknown experiment accepted")
	} else if !strings.Contains(err.Error(), "tail") {
		t.Errorf("unknown-experiment error does not enumerate tail: %v", err)
	}
	if sel, err := parseExpFlag("tail", valid); err != nil || !sel["tail"] {
		t.Fatalf("-exp tail rejected: sel=%v err=%v", sel, err)
	}
}

// The timeline experiment is part of the catalogue, and the valid-name
// list (what -exp list prints) comes out sorted so users can scan it.
func TestCatalogueIncludesTimelineAndIsSorted(t *testing.T) {
	valid := experimentNames(buildExperiments(bench.Options{}, bench.MSFOptions{}))
	if !sort.StringsAreSorted(valid) {
		t.Errorf("-exp list is not sorted: %v", valid)
	}
	set := map[string]bool{}
	for _, n := range valid {
		set[n] = true
	}
	if !set["timeline"] {
		t.Fatalf("experiment catalogue missing \"timeline\": %v", valid)
	}
	if sel, err := parseExpFlag("timeline", valid); err != nil || !sel["timeline"] {
		t.Fatalf("-exp timeline rejected: sel=%v err=%v", sel, err)
	}
	if _, err := parseExpFlag("timelien", valid); err == nil {
		t.Fatal("unknown experiment accepted")
	} else if !strings.Contains(err.Error(), "timeline") {
		t.Errorf("unknown-experiment error does not enumerate timeline: %v", err)
	}
}

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
// inside a cell, and non-positive sizes used to print empty or all-zero
// figures. Negative -parallel, -cell-timeout and -timeline-window are
// rejected; zero keeps its documented meaning. The strand scheduler is not
// a command-line choice: -sched is an unknown flag.
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
		{[]string{"-ops", "-5"}, "-ops"},
		{[]string{"-ops", "0"}, "-ops"},
		{[]string{"-msf-dim", "0"}, "-msf-dim"},
		{[]string{"-msf-dim", "-4"}, "-msf-dim"},
		{[]string{"-profile-ops", "0"}, "-profile-ops"},
		{[]string{"-parallel", "0", "-cell-timeout", "0", "-timeline-window", "0"}, ""},
		{[]string{"-parallel", "-3"}, "-parallel"},
		{[]string{"-cell-timeout", "-1s"}, "-cell-timeout"},
		{[]string{"-timeline-window", "-5", "-timeline", "f.json"}, "-timeline-window"},
		{[]string{"-sched", "step"}, "-sched"},
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

// The fleet experiment (sharded service tier) is part of the catalogue,
// the list stays sorted, and the unknown-name error enumerates it.
func TestCatalogueIncludesFleet(t *testing.T) {
	valid := experimentNames(buildExperiments(bench.Options{}, bench.MSFOptions{}))
	if !sort.StringsAreSorted(valid) {
		t.Errorf("-exp list is not sorted: %v", valid)
	}
	set := map[string]bool{}
	for _, n := range valid {
		set[n] = true
	}
	if !set["fleet"] {
		t.Fatalf("experiment catalogue missing \"fleet\": %v", valid)
	}
	if sel, err := parseExpFlag("fleet", valid); err != nil || !sel["fleet"] {
		t.Fatalf("-exp fleet rejected: sel=%v err=%v", sel, err)
	}
	if _, err := parseExpFlag("fleeet", valid); err == nil {
		t.Fatal("unknown experiment accepted")
	} else if !strings.Contains(err.Error(), "fleet") {
		t.Errorf("unknown-experiment error does not enumerate fleet: %v", err)
	}
}

// The htmdesign experiment (HTM design-space sweep) is part of the
// catalogue, the list stays sorted, and the unknown-name error
// enumerates it.
func TestCatalogueIncludesHTMDesign(t *testing.T) {
	valid := experimentNames(buildExperiments(bench.Options{}, bench.MSFOptions{}))
	if !sort.StringsAreSorted(valid) {
		t.Errorf("-exp list is not sorted: %v", valid)
	}
	set := map[string]bool{}
	for _, n := range valid {
		set[n] = true
	}
	if !set["htmdesign"] {
		t.Fatalf("experiment catalogue missing \"htmdesign\": %v", valid)
	}
	if sel, err := parseExpFlag("htmdesign", valid); err != nil || !sel["htmdesign"] {
		t.Fatalf("-exp htmdesign rejected: sel=%v err=%v", sel, err)
	}
	if _, err := parseExpFlag("htmdeisgn", valid); err == nil {
		t.Fatal("unknown experiment accepted")
	} else if !strings.Contains(err.Error(), "htmdesign") {
		t.Errorf("unknown-experiment error does not enumerate htmdesign: %v", err)
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
		{runner.Progress{Total: 12, Done: 3, Cached: 1, ETASeconds: 4.4, Last: last},
			"figures: 3/12 cells (1 cached) eta 4s  last=fig2a/phtm@4T"},
		{runner.Progress{Total: 12, Done: 5, Failed: 2, Last: last},
			"figures: 5/12 cells (0 cached, 2 failed) eta 0s  last=fig2a/phtm@4T"},
		{runner.Progress{Total: 40, Done: 1, ETASeconds: 2.5, Last: last},
			"figures: 1/40 cells (0 cached) eta 3s  last=fig2a/phtm@4T"},
		{runner.Progress{Total: 40, Done: 2, ETASeconds: 89.4996, Last: last},
			"figures: 2/40 cells (0 cached) eta 1m29s  last=fig2a/phtm@4T"},
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
