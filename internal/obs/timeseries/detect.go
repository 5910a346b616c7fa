package timeseries

import (
	"fmt"
	"sort"

	"rocktm/internal/cps"
)

// Pathology detectors: a rule pass over a window series that names the
// failure signatures the Rock paper and its successors describe in prose
// — the PhTM phase-flip drain E23 measured, the "lemming effect" convoy
// from Dice et al.'s follow-up work, hot-key coherence abort storms, and
// transactions whose footprint can never fit the hardware (capacity-
// hopeless). Each detector scans WindowStats only — no recorder access —
// so findings can be computed from cached, deserialized series.

// Finding kinds.
const (
	// KindPhaseFlipDrain: a fallback-fraction spike coinciding with a tail
	// latency excursion — the global software phase (or lock fallback)
	// draining latency budget while aggregate throughput looks healthy.
	KindPhaseFlipDrain = "phase-flip-drain"
	// KindLemmingConvoy: sustained fallback lock-in after the triggering
	// conflict has cleared — most completions still taking the software or
	// lock path while hardware aborts are no longer concentrated.
	KindLemmingConvoy = "lemming-convoy"
	// KindHotKeyAbortStorm: hardware aborts both frequent and dominated by
	// the coherence CPS bit — the signature of every strand hammering the
	// same cache lines.
	KindHotKeyAbortStorm = "hot-key-abort-storm"
	// KindCapacityHopeless: aborts dominated by capacity bits (SIZ, store-
	// queue ST) at a high abort rate across consecutive windows — retrying
	// a transaction the hardware can never commit.
	KindCapacityHopeless = "capacity-hopeless"
)

// Finding is one detected pathology: a named signature, the contiguous
// window range exhibiting it, and human-readable evidence.
type Finding struct {
	Kind string `json:"kind"`
	// FirstWindow/LastWindow are inclusive window indices; StartCycle/
	// EndCycle the corresponding simulated-cycle span.
	FirstWindow int   `json:"first_window"`
	LastWindow  int   `json:"last_window"`
	StartCycle  int64 `json:"start_cycle"`
	EndCycle    int64 `json:"end_cycle"`
	// Severity is the detector's peak signal over the range, normalized so
	// 1.0 means "at threshold" and larger means worse.
	Severity float64 `json:"severity"`
	// Evidence is a one-line justification with the numbers that fired.
	Evidence string `json:"evidence"`
}

// String renders the finding for figure notes and logs.
func (f Finding) String() string {
	return fmt.Sprintf("%s windows %d-%d (cycles %d-%d, sev %.2f): %s",
		f.Kind, f.FirstWindow, f.LastWindow, f.StartCycle, f.EndCycle, f.Severity, f.Evidence)
}

// Detector thresholds, calibrated against the E23/E24 sweeps (see
// docs/OBSERVABILITY.md for the calibration notes).
const (
	// Phase flip: the fallback fraction exceeds the series baseline by
	// fallbackJump and the window p99.9 exceeds phaseFlipLatFactor × the
	// series' median ops-bearing-window p99.9.
	fallbackJump       = 0.10
	phaseFlipLatFactor = 2.0
	// Lemming: at least lemmingRun consecutive windows with fallback
	// fraction ≥ lemmingFrac while the hardware abort picture has cleared
	// (abort rate ≤ lemmingAbortCeiling).
	lemmingFrac         = 0.50
	lemmingRun          = 3
	lemmingAbortCeiling = 0.10
	// Hot-key storm: abort rate ≥ stormAbortRate with coherence-bit share
	// ≥ stormCohShare.
	stormAbortRate = 0.50
	stormCohShare  = 0.60
	// Capacity-hopeless: abort rate ≥ capAbortRate with capacity-bit share
	// ≥ capShare over at least capRun consecutive windows.
	capAbortRate = 0.50
	capShare     = 0.60
	capRun       = 2
	// detectMinOps gates the latency-based detector: windows with fewer
	// completed ops than this have meaningless percentiles and are skipped.
	detectMinOps = 8
)

// Detect runs every detector over the series. Findings are ordered by
// (first window, kind) for deterministic output.
func Detect(s Series) []Finding {
	var out []Finding
	out = append(out, detectPhaseFlip(s)...)
	out = append(out, detectLemming(s)...)
	out = append(out, detectStorm(s)...)
	out = append(out, detectCapacity(s)...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].FirstWindow != out[j].FirstWindow {
			return out[i].FirstWindow < out[j].FirstWindow
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// baselines computes the series-wide reference levels the relative
// detectors compare against: the median fallback fraction and median
// p99.9 over windows that completed at least detectMinOps operations.
func baselines(s Series) (fbBase float64, latBase int64, ok bool) {
	var fbs []float64
	var lats []int64
	for _, w := range s.Windows {
		if w.Ops < detectMinOps {
			continue
		}
		fbs = append(fbs, w.FallbackFrac)
		lats = append(lats, w.P999)
	}
	if len(fbs) < 2 {
		return 0, 0, false
	}
	sort.Float64s(fbs)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return fbs[len(fbs)/2], lats[len(lats)/2], true
}

// group folds runs of flagged windows into contiguous Findings. sev and
// evid report the per-window signal; the range keeps the peak.
func group(s Series, kind string, flagged []int, sev func(i int) float64, evid func(i int) string) []Finding {
	var out []Finding
	for start := 0; start < len(flagged); {
		end := start
		for end+1 < len(flagged) && flagged[end+1] == flagged[end]+1 {
			end++
		}
		first, last := flagged[start], flagged[end]
		f := Finding{
			Kind:        kind,
			FirstWindow: s.Windows[first].Index,
			LastWindow:  s.Windows[last].Index,
			StartCycle:  s.Windows[first].StartCycle,
			EndCycle:    s.EndCycle(s.Windows[last]),
		}
		peak := start
		for i := start; i <= end; i++ {
			if sev(flagged[i]) > sev(flagged[peak]) {
				peak = i
			}
		}
		f.Severity = sev(flagged[peak])
		f.Evidence = evid(flagged[peak])
		out = append(out, f)
		start = end + 1
	}
	return out
}

func detectPhaseFlip(s Series) []Finding {
	fbBase, latBase, ok := baselines(s)
	if !ok || latBase == 0 {
		return nil
	}
	var flagged []int
	for i, w := range s.Windows {
		if w.Ops < detectMinOps {
			continue
		}
		if w.FallbackFrac >= fbBase+fallbackJump &&
			float64(w.P999) >= phaseFlipLatFactor*float64(latBase) {
			flagged = append(flagged, i)
		}
	}
	sev := func(i int) float64 {
		return float64(s.Windows[i].P999) / (phaseFlipLatFactor * float64(latBase))
	}
	evid := func(i int) string {
		w := s.Windows[i]
		extra := ""
		if w.ToSoftware > 0 {
			extra = fmt.Sprintf(", %d mode-software flip(s)", w.ToSoftware)
		}
		return fmt.Sprintf("fallback frac %.2f (baseline %.2f), p99.9 %d cycles (baseline median %d)%s",
			w.FallbackFrac, fbBase, w.P999, latBase, extra)
	}
	return group(s, KindPhaseFlipDrain, flagged, sev, evid)
}

func detectLemming(s Series) []Finding {
	// A convoy is a hardware path abandoned, not a system that never had
	// one: pure-software systems run at fallback fraction 1.0 by
	// construction and must not flag.
	var begins uint64
	for _, w := range s.Windows {
		begins += w.Begins
	}
	if begins == 0 {
		return nil
	}
	var flagged []int
	for i, w := range s.Windows {
		if w.Commits+w.SWCommits+w.Fallbacks == 0 {
			continue
		}
		if w.FallbackFrac >= lemmingFrac && w.AbortRate <= lemmingAbortCeiling {
			flagged = append(flagged, i)
		}
	}
	sev := func(i int) float64 { return s.Windows[i].FallbackFrac / lemmingFrac }
	evid := func(i int) string {
		w := s.Windows[i]
		return fmt.Sprintf("fallback frac %.2f with abort rate %.2f — fallback path outliving its trigger",
			w.FallbackFrac, w.AbortRate)
	}
	fs := group(s, KindLemmingConvoy, flagged, sev, evid)
	// Only runs long enough to be a convoy, not a single flip window.
	var out []Finding
	for _, f := range fs {
		if f.LastWindow-f.FirstWindow+1 >= lemmingRun {
			out = append(out, f)
		}
	}
	return out
}

func detectStorm(s Series) []Finding {
	coh := cps.COH
	var flagged []int
	for i, w := range s.Windows {
		if w.Aborts+w.Commits == 0 {
			continue
		}
		if w.AbortRate >= stormAbortRate && w.CPSShare(coh) >= stormCohShare {
			flagged = append(flagged, i)
		}
	}
	sev := func(i int) float64 { return s.Windows[i].AbortRate / stormAbortRate }
	evid := func(i int) string {
		w := s.Windows[i]
		return fmt.Sprintf("abort rate %.2f, coherence (COH) share %.2f of %d aborts",
			w.AbortRate, w.CPSShare(coh), w.Aborts)
	}
	return group(s, KindHotKeyAbortStorm, flagged, sev, evid)
}

func detectCapacity(s Series) []Finding {
	capBits := cps.SIZ | cps.ST
	var flagged []int
	for i, w := range s.Windows {
		if w.Aborts+w.Commits == 0 {
			continue
		}
		if w.AbortRate >= capAbortRate && w.CPSShare(capBits) >= capShare {
			flagged = append(flagged, i)
		}
	}
	sev := func(i int) float64 { return s.Windows[i].AbortRate / capAbortRate }
	evid := func(i int) string {
		w := s.Windows[i]
		return fmt.Sprintf("abort rate %.2f with capacity (SIZ|ST) share %.2f — footprint exceeds hardware",
			w.AbortRate, w.CPSShare(capBits))
	}
	fs := group(s, KindCapacityHopeless, flagged, sev, evid)
	var out []Finding
	for _, f := range fs {
		if f.LastWindow-f.FirstWindow+1 >= capRun {
			out = append(out, f)
		}
	}
	return out
}
