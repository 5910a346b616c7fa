package main

import (
	"bytes"
	"strings"
	"testing"

	"rocktm/internal/bench"
)

// figuresOutput renders a small Figure 2(a) exactly as cmd/figures -json
// prints it: the table, then the JSON document.
func figuresOutput(t *testing.T) []byte {
	t.Helper()
	fig, err := bench.Fig2a(bench.Options{Threads: []int{1, 2}, OpsPerThread: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	if err := fig.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var tinyFig2a = workload{name: "tiny", exps: []string{"fig2a"}, points: 12}

func TestCheckOutputAcceptsGoodFigures(t *testing.T) {
	out := figuresOutput(t)
	if bad, problems := checkOutput(tinyFig2a, out); bad != 0 || len(problems) != 0 {
		t.Fatalf("good figure: %d bad cells, problems %q", bad, problems)
	}
	two := workload{name: "two", exps: []string{"fig2a", "fig2a"}, points: 24}
	if bad, problems := checkOutput(two, append(append([]byte{}, out...), out...)); bad != 0 {
		t.Fatalf("two figures: %d bad cells, problems %q", bad, problems)
	}
}

func TestCheckOutputRejectsCorruptFigures(t *testing.T) {
	good := string(figuresOutput(t))
	firstValue := good[strings.Index(good, `"ops_per_usec": `)+len(`"ops_per_usec": `):]
	firstValue = firstValue[:strings.IndexAny(firstValue, ",\n")]
	for _, tc := range []struct {
		name    string
		out     string
		wantBad int
	}{
		{"negative throughput", strings.Replace(good, `"ops_per_usec": `+firstValue, `"ops_per_usec": -1`, 1), 1},
		{"zero throughput", strings.Replace(good, `"ops_per_usec": `+firstValue, `"ops_per_usec": 0`, 1), 1},
		{"no JSON document", good[:strings.Index(good, "\n{\n")+1], 12},
		{"truncated JSON", good[:len(good)-40], 12},
		{"empty", "", 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad, problems := checkOutput(tinyFig2a, []byte(tc.out))
			if bad != tc.wantBad || len(problems) == 0 {
				t.Fatalf("%d bad cells (want %d), problems %q", bad, tc.wantBad, problems)
			}
		})
	}
}

func TestCheckCountsNondeterministicPassAsFailed(t *testing.T) {
	ref := figuresOutput(t)
	r := &workloadReport{}
	r.check(tinyFig2a, pass{stdout: ref}, ref)
	if r.Failed != 0 || r.Attempted != 12 {
		t.Fatalf("identical pass: %d failed of %d", r.Failed, r.Attempted)
	}
	other := bytes.Replace(ref, []byte("Figure 2(a)"), []byte("Figure 2(A)"), 1)
	r.check(tinyFig2a, pass{stdout: other}, ref)
	if r.Failed != 12 || r.Attempted != 24 || r.errorRate() != 0.5 {
		t.Fatalf("differing pass: %d failed of %d", r.Failed, r.Attempted)
	}
}

func TestCheckReplayIsExact(t *testing.T) {
	figs, err := parseFigures(figuresOutput(t))
	if err != nil || len(figs) != 1 {
		t.Fatalf("parse: %v, %d figures", err, len(figs))
	}
	if bad, problems := checkReplay(figs, figs); bad != 0 {
		t.Fatalf("identical replay: %d bad, %q", bad, problems)
	}
	drift, _ := parseFigures(figuresOutput(t))
	drift[0].Curves[2].Points[1].OpsPerUsec *= 1 + 1e-15
	drift[0].Curves[5].Points = drift[0].Curves[5].Points[:1]
	if bad, _ := checkReplay(figs, drift); bad != 2 {
		t.Fatalf("replay off by one value and one missing point: %d bad, want 2", bad)
	}
}
