package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rocktm/internal/graphgen"
	"rocktm/internal/sim"
)

func tinyOptions() Options {
	return Options{Threads: []int{1, 2}, OpsPerThread: 120, Seed: 1}
}

// TestFiguresRenderAndCarryData smoke-tests each experiment driver at tiny
// scale: it must produce the expected curves with nonzero throughput and
// render without panicking.
func TestFiguresRenderAndCarryData(t *testing.T) {
	o := tinyOptions()
	cases := []struct {
		name   string
		run    func(Options) (*Figure, error)
		curves int
	}{
		{"counter", CounterFigure, 4},
		{"dcas", DCASFigure, 4},
		{"fig1a", Fig1a, 6},
		{"fig2a", Fig2a, 6},
		{"fig3a", Fig3a, 4},
		{"divide", DivideHashDemo, 2},
		{"volano", VolanoFigure, 3},
		{"ablate-throttle", AblationThrottle, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fig, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(fig.Curves) != tc.curves {
				t.Fatalf("%d curves, want %d", len(fig.Curves), tc.curves)
			}
			for _, c := range fig.Curves {
				if len(c.Points) != len(o.Threads) {
					t.Fatalf("curve %s has %d points", c.Name, len(c.Points))
				}
				for _, p := range c.Points {
					if p.OpsPerUsec <= 0 {
						t.Fatalf("curve %s: nonpositive throughput at %d threads", c.Name, p.Threads)
					}
				}
			}
			var buf bytes.Buffer
			fig.Render(&buf)
			out := buf.String()
			if !strings.Contains(out, fig.Title) || !strings.Contains(out, "threads") {
				t.Fatalf("render missing header:\n%s", out)
			}
			buf.Reset()
			fig.CSV(&buf)
			if lines := strings.Count(buf.String(), "\n"); lines != tc.curves*len(o.Threads) {
				t.Fatalf("CSV rows = %d, want %d", lines, tc.curves*len(o.Threads))
			}
		})
	}
}

// TestFigureValueAt exercises the lookup helper used by assertions.
func TestFigureValueAt(t *testing.T) {
	fig := &Figure{Curves: []Curve{{Name: "x", Points: []Point{{Threads: 4, OpsPerUsec: 1.5}}}}}
	if v, ok := fig.ValueAt("x", 4); !ok || v != 1.5 {
		t.Fatalf("ValueAt = (%v,%v)", v, ok)
	}
	if _, ok := fig.ValueAt("x", 8); ok {
		t.Fatal("found missing thread count")
	}
	if _, ok := fig.ValueAt("y", 4); ok {
		t.Fatal("found missing curve")
	}
}

// TestQualitativeClaims asserts the headline shape results at small scale:
// PhTM beats the single lock at 8 threads on the hash table, and TLE beats
// plain monitors on the Java Hashtable.
func TestQualitativeClaims(t *testing.T) {
	o := Options{Threads: []int{8}, OpsPerThread: 600, Seed: 1}
	fig, err := Fig1a(o)
	if err != nil {
		t.Fatal(err)
	}
	phtm, _ := fig.ValueAt("phtm", 8)
	lock, _ := fig.ValueAt("one-lock", 8)
	if phtm < 2*lock {
		t.Errorf("fig1a @8 threads: phtm %.1f not ≫ one-lock %.1f", phtm, lock)
	}
	fig3b, err := Fig3b(o)
	if err != nil {
		t.Fatal(err)
	}
	tleV, _ := fig3b.ValueAt("2:6:2-TLE", 8)
	lockV, _ := fig3b.ValueAt("2:6:2-locks", 8)
	if tleV < 1.5*lockV {
		t.Errorf("fig3b @8 threads: TLE %.1f not ≫ locks %.1f", tleV, lockV)
	}
}

// TestMSFVariantRunsAndValidates runs one tiny MSF cell end to end (the
// runner validates against Kruskal internally).
func TestMSFVariantRunsAndValidates(t *testing.T) {
	n, edges := graphgen.RoadmapEdges(16, 16, 0.05, 1<<20, 3)
	run, err := RunMSFGraph("msf-opt-le", n, edges, 2, 3, sim.SSE)
	if err != nil {
		t.Fatal(err)
	}
	if run.Seconds <= 0 {
		t.Fatal("nonpositive running time")
	}
	if _, err := RunMSFGraph("nope", n, edges, 2, 3, sim.SSE); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// TestCheckMSFGrid checks the MSF grid bound against grids whose memory
// msfMemWords computes from their generated edges, and rejects grids
// whose simulated memory would exceed sim's limit. Every rejected grid is
// rejected before anything is allocated; none is generated here.
func TestCheckMSFGrid(t *testing.T) {
	for _, g := range []struct {
		dim   int
		extra float64
	}{{1, 0}, {16, 0.05}, {64, 0.5}, {96, 0.05}} {
		if err := CheckMSFGrid(g.dim, g.dim, g.extra); err != nil {
			t.Errorf("%d×%d, extra %g rejected: %v", g.dim, g.dim, g.extra, err)
		}
		n, edges := graphgen.RoadmapEdges(g.dim, g.dim, g.extra, 1<<20, 1)
		grid := 2 * g.dim * (g.dim - 1)
		if bound := grid + int(g.extra*float64(grid)); len(edges) > bound || n != g.dim*g.dim {
			t.Errorf("%d×%d, extra %g: %d vertices and %d edges, bound assumes %d and at most %d",
				g.dim, g.dim, g.extra, n, len(edges), g.dim*g.dim, bound)
		}
	}
	// About 8,100 per side at extra 0.05 needs more than 2^32 words.
	if err := CheckMSFGrid(8000, 8000, 0.05); err != nil {
		t.Errorf("8000×8000 rejected: %v", err)
	}
	for _, g := range []struct {
		w, h  int
		extra float64
	}{
		{8192, 8192, 0.05},
		{64, 64, 1e9},
		{64, 64, math.Inf(1)},
		{1 << 17, 1 << 17, 0},
		{1 << 40, 1 << 40, 0.05},
		{math.MaxInt, math.MaxInt, 0.05},
	} {
		if err := CheckMSFGrid(g.w, g.h, g.extra); err == nil {
			t.Errorf("%d×%d, extra %g accepted", g.w, g.h, g.extra)
		}
	}
}

// TestProfileReportLines sanity-checks the Section 6.1 report: one row
// per tree size, each with both budgets' summaries, rendered under its
// header, and no CSV or JSON form.
func TestProfileReportLines(t *testing.T) {
	rep := ProfileReport(150, []int{256})
	if len(rep.Rows) != 1 || rep.Rows[0].TreeKeys != 256 || rep.Rows[0].Tight.Ops != 150 || rep.Rows[0].Default.Ops != 150 {
		t.Fatalf("rows = %+v, want one 256-key row of 150 ops per budget", rep.Rows)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== Section 6.1", "failed to software", "read-set lines", "stack writes: 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	buf.Reset()
	rep.CSV(&buf)
	if err := rep.JSON(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("CSV and JSON wrote %q (err %v), want nothing", buf.String(), err)
	}
}
