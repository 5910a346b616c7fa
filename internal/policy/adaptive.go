package policy

import (
	"rocktm/internal/cps"
	"rocktm/internal/obs"
)

// adaptiveWindow is how many failures the adaptive policy accumulates
// between stance refreshes. Each refresh classifies only the *recent*
// window (the delta since the last refresh, extracted with
// obs.CPSDelta), so a system that was contended during warmup but calmed
// down is not throttled forever.
const adaptiveWindow = 32

// capacityBits are the CPS reasons that signal a hardware resource was
// exhausted: SIZ (store-queue or deferred-queue overflow), and the ST/LD
// bits in their capacity roles (micro-DTLB pressure on stores, read-set
// eviction on loads). A transaction that overflows once tends to
// overflow every time — unless the failing attempts themselves warm the
// caches, which is exactly what the adaptive policy watches for.
const capacityBits = cps.SIZ | cps.LD | cps.ST

// Adaptive learns an abort histogram over the blocks it decides for and
// shifts its stance. It starts from the paper policy's reactions and
// sharpens two of them with observed history:
//
//   - Capacity (SIZ/LD/ST) failures: the paper policy always spends the
//     full budget, betting that retries warm the cache (Section 6). The
//     adaptive policy takes that bet only while it keeps paying off — if
//     the recent failures are dominated by capacity reasons and hardware
//     commits after a failure have stopped, it falls back immediately,
//     saving the doomed retries.
//   - Coherence (COH) failures: plain exponential backoff defeats
//     requester-wins livelock between two strands (Section 4), but under
//     genuine many-strand contention the backoff window re-fills with
//     conflicting retries. When COH dominates the recent window the
//     policy escalates Backoff to Throttle (a deeper window), the
//     admission-control stance of Section 7.2's future work. A tuning
//     whose BackoffOn lacks COH retries a COH failure at once for one
//     point instead, as the paper policy does.
//
// All learning is deterministic: decisions depend only on the history of
// CPS values observed, never on host state. Instances are NOT safe for
// concurrent use from multiple host threads; under the simulator's baton
// discipline (and one instance per experiment cell) this is free.
type Adaptive struct {
	t Tuning

	hist *cps.Histogram // every failure ever observed
	snap *cps.Histogram // copy of hist at the last stance refresh

	sinceRefresh int
	recentHW     bool // a hardware commit after a failure since the last refresh

	// Learned stance, recomputed from the recent window at each refresh.
	capacityHopeless bool // capacity aborts dominate and retries stopped paying
	contended        bool // COH dominates: escalate Backoff to Throttle
}

// NewAdaptive builds an adaptive policy with the given tuning.
func NewAdaptive(t Tuning) *Adaptive {
	return &Adaptive{t: t, hist: cps.NewHistogram(), snap: cps.NewHistogram()}
}

// Name implements Policy.
func (p *Adaptive) Name() string { return "adaptive" }

// Budget implements Policy.
func (p *Adaptive) Budget() float64 { return p.t.Budget }

// Decide implements Policy.
func (p *Adaptive) Decide(c cps.Bits) Decision {
	t := &p.t
	if c == cps.TCC {
		// The system's own abort: not evidence about the hardware's
		// viability, so it is not recorded.
		return Decision{Action: t.TCCAction, Score: t.TCCWeight}
	}
	p.hist.Add(c)
	p.sinceRefresh++
	if p.sinceRefresh >= adaptiveWindow {
		p.refresh()
	}
	switch {
	case c.Has(cps.UCTI):
		// Companion bits may be misspeculation artifacts; cheap retry.
		return Decision{Action: Retry, Score: t.UCTIWeight}
	case c.Any(giveUp):
		return Decision{Action: Fallback}
	case c.Any(capacityBits):
		if p.capacityHopeless {
			return Decision{Action: Fallback}
		}
		return Decision{Action: Retry, Score: 1}
	case c.Has(cps.COH):
		if !t.BackoffOn.Has(cps.COH) {
			// The design's hardware already serialized the conflict
			// (TuningForDesign): retry at once, as the paper policy does.
			return Decision{Action: Retry, Score: 1}
		}
		if p.contended {
			return Decision{Action: Throttle, Score: 1}
		}
		return Decision{Action: Backoff, Score: 1}
	default:
		// ASYNC, EXOG, CTI: transient events unrelated to the block's
		// footprint; charge half, retry immediately.
		return Decision{Action: Retry, Score: 0.5}
	}
}

// refresh reclassifies the stance from the failures observed since the
// last refresh. The recent window is the histogram delta, extracted with
// obs.CPSDelta — the same primitive the Section 6.1 profiler uses to
// attribute one attempt's failure.
func (p *Adaptive) refresh() {
	recent := obs.CPSDelta(p.snap, p.hist)
	var capacity, coh int
	for _, c := range recent {
		if c.Any(capacityBits) {
			capacity++
		}
		if c.Has(cps.COH) {
			coh++
		}
	}
	n := len(recent)
	if n > 0 {
		// Capacity is hopeless when it dominates the recent window AND no
		// hardware commit has landed since the last refresh: the
		// cache-warming bet (Section 6) has observably stopped paying.
		p.capacityHopeless = capacity*4 >= n*3 && !p.recentHW
		p.contended = coh*2 >= n
	}
	p.snap = cps.NewHistogram()
	p.snap.Merge(p.hist)
	p.sinceRefresh = 0
	p.recentHW = false
}

// Done implements Policy. A hardware commit after at least one failure is
// direct evidence that retries still pay, so it lifts a capacityHopeless
// verdict immediately instead of waiting for the next refresh.
func (p *Adaptive) Done(attempts int, fellBack bool) {
	if !fellBack && attempts > 1 {
		p.recentHW = true
		p.capacityHopeless = false
	}
}

// Histogram returns a copy of the abort histogram the policy has learned
// (for tests and reports).
func (p *Adaptive) Histogram() *cps.Histogram {
	out := cps.NewHistogram()
	out.Merge(p.hist)
	return out
}
