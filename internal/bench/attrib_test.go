package bench

import "testing"

// The attribution report folds each run's live event stream, so it stays
// exact at any scale: every operation completes exactly once, as a
// hardware commit or on the system's software or lock path.
func TestAttributionExactAtScale(t *testing.T) {
	const ops = 40000
	rep, err := AttributionReport(Options{Threads: []int{1}, OpsPerThread: ops, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rep.Notes {
		t.Errorf("unexpected note: %s", n)
	}
	if len(rep.Rows) != len(attribSystems()) {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), len(attribSystems()))
	}
	for _, row := range rep.Rows {
		slow, path := row.SWCommits, "sw-commit"
		if row.System == "tle" {
			slow, path = row.Fallbacks, "fallback"
		}
		if row.Ops != ops || row.Commits+slow != ops {
			t.Errorf("%s: ops %d, hw-commit %d + %s %d, want every one of %d operations once",
				row.System, row.Ops, row.Commits, path, slow, ops)
		}
	}
}
