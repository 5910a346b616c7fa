package policy

import (
	"rocktm/internal/cps"
	"rocktm/internal/sim"
)

// TuningForDesign adapts a tuning to the machine's HTM design point
// (sim.Config.HTM). The paper's Section 6.1 knobs are calibrated against
// Rock's requester-wins, lazy-write-buffer hardware; two of the four
// design axes change what a CPS value is telling the retry policy, so the
// htmdesign sweep routes every policy's tuning through here. The Rock
// design returns base unchanged.
func TuningForDesign(base Tuning, d sim.HTMDesign) Tuning {
	if d.Resolve == sim.ResCommitterWins || d.Resolve == sim.ResTimestamp {
		// Under requester-wins, COH means "somebody doomed me mid-flight"
		// and software backoff is what breaks the mutual-doom livelock
		// (Section 4). Under committer-wins/timestamp the hardware already
		// serialized the conflict: a COH abort names a requester that lost
		// an arbitration *after* paying a NACK stall window, so piling
		// software backoff on top of the hardware stall just doubles the
		// delay. Retry immediately instead.
		base.BackoffOn &^= cps.COH
	}
	if d.VM == sim.VMEager {
		// Eager version management makes aborts expensive: every failed
		// attempt unrolls its undo log (LogWrite per entry) on top of the
		// flush penalty. Burning attempts costs more, so fall back sooner —
		// the same reasoning that gives HyTM's pricier hardware path a
		// smaller budget than PhTM's.
		base.Budget *= 0.75
	}
	// DetectLazy moves *when* COH surfaces (at the committer's drain rather
	// than per access) and StickyLines moves *how much* read set fits
	// before LD|SIZ, but neither changes what the bits ask of the retry
	// policy — deliberate no-ops here.
	return base
}
