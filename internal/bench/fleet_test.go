package bench

import (
	"bytes"
	"strings"
	"testing"

	"rocktm/internal/runner"
)

// The fleet figure rides the runner like every other experiment: the
// per-shard series and 2PC counts live inside the cell payload, so
// serial, 8-worker parallel and warm-cache executions must render
// byte-identically — including the SLO verdicts, imbalance ratios and
// commit/abort counts in the notes.
func TestFleetParallelMatchesSerialByteForByte(t *testing.T) {
	o := Options{OpsPerThread: 40, Seed: 1}

	serialFig, err := FleetFigure(o) // o.Runner == nil: one worker, no cache
	if err != nil {
		t.Fatal(err)
	}
	serial := renderAll(t, serialFig)

	cache, err := runner.OpenCache(t.TempDir(), runner.CacheVersion)
	if err != nil {
		t.Fatal(err)
	}
	po := o
	po.Runner = &runner.Pool{Workers: 8, Cache: cache}
	for pass, label := range []string{"parallel", "warm-cache"} {
		fig, err := FleetFigure(po)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(t, fig); !bytes.Equal(serial, got) {
			t.Fatalf("pass %d (%s) fleet output differs from serial:\n--- serial ---\n%s\n--- got ---\n%s",
				pass, label, serial, got)
		}
	}
	for _, w := range cache.Warnings() {
		t.Errorf("unexpected cache warning: %s", w)
	}
}

// Every curve is judged at the top shard count: SLO pass counts with
// burn rates, hot-shard imbalance, and 2PC outcome counts; the latency
// tables are always present (Latency is forced on).
func TestFleetFigureJudgesEveryCurve(t *testing.T) {
	o := Options{OpsPerThread: 40, Seed: 1}
	fig, err := FleetFigure(o)
	if err != nil {
		t.Fatal(err)
	}
	// 4 systems x 3 scenarios x 2 cross-shard fractions.
	if len(fig.Curves) != 24 {
		t.Fatalf("got %d curves, want 24", len(fig.Curves))
	}
	top := fleetShardAxis()[len(fleetShardAxis())-1]
	notes := strings.Join(fig.Notes, "\n")
	for _, c := range fig.Curves {
		if !strings.Contains(notes, c.Name+" @") {
			t.Errorf("curve %s has no note at the top shard count", c.Name)
		}
		if len(c.Points) != len(fleetShardAxis()) {
			t.Errorf("curve %s has %d points, want %d", c.Name, len(c.Points), len(fleetShardAxis()))
		}
		for _, p := range c.Points {
			if p.Lat == nil {
				t.Errorf("curve %s point @%dS carries no latency digest", c.Name, p.Threads)
			}
		}
	}
	for _, want := range []string{"SLO", "imbalance", "2pc", "burn"} {
		if !strings.Contains(notes, want) {
			t.Errorf("notes missing %q:\n%s", want, notes)
		}
	}
	// The cross-shard curves must actually run transactions through 2PC:
	// at the top shard count at least one +x10 note reports a nonzero
	// commit count.
	if !strings.Contains(notes, "+x10 @") {
		t.Errorf("no cross-shard curve notes at @%dS:\n%s", top, notes)
	}
	if !fig.hasLatency() {
		t.Error("fleet figure must always carry latency digests")
	}
}
