package policy

import (
	"testing"

	"rocktm/internal/cps"
	"rocktm/internal/sim"
)

// TestTuningForDesign pins the per-design tuning table: which design
// points adjust which knobs, and that everything else passes through
// untouched.
func TestTuningForDesign(t *testing.T) {
	base := TLE()

	if got := TuningForDesign(base, sim.DesignPoint("rock")); got != base {
		t.Errorf("rock design changed the tuning: %+v", got)
	}
	// Lazy detection and sticky sets are documented no-ops.
	if got := TuningForDesign(base, sim.DesignPoint("lazydet")); got != base {
		t.Errorf("lazydet changed the tuning: %+v", got)
	}
	if got := TuningForDesign(base, sim.DesignPoint("sticky")); got != base {
		t.Errorf("sticky changed the tuning: %+v", got)
	}

	// Committer-wins and timestamp arbitration already stalled the loser in
	// hardware: COH must leave the backoff set, and nothing else may move.
	for _, name := range []string{"committer", "timestamp"} {
		got := TuningForDesign(base, sim.DesignPoint(name))
		if got.BackoffOn.Has(cps.COH) {
			t.Errorf("%s: COH still in BackoffOn", name)
		}
		want := base
		want.BackoffOn = base.BackoffOn &^ cps.COH
		if got != want {
			t.Errorf("%s tuning = %+v, want only BackoffOn changed (%+v)", name, got, want)
		}
	}

	// Eager version management prices aborts up, so the budget shrinks.
	got := TuningForDesign(base, sim.DesignPoint("eagervm"))
	if got.Budget >= base.Budget {
		t.Errorf("eagervm budget = %v, want < %v", got.Budget, base.Budget)
	}
	want := base
	want.Budget = base.Budget * 0.75
	if got != want {
		t.Errorf("eagervm tuning = %+v, want only Budget changed (%+v)", got, want)
	}

	// Axes compose: eager VM with committer-wins applies both adjustments.
	both := TuningForDesign(base, sim.HTMDesign{VM: sim.VMEager, Resolve: sim.ResCommitterWins})
	if both.Budget != base.Budget*0.75 || both.BackoffOn.Has(cps.COH) {
		t.Errorf("composed design tuning = %+v", both)
	}
}
