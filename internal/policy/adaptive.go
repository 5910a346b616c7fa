package policy

import (
	"rocktm/internal/cps"
	"rocktm/internal/obs"
)

// adaptiveWindow is how many failures at one site the adaptive policy
// accumulates between stance refreshes. Each refresh classifies only the
// *recent* window (the delta since the last refresh, extracted with
// obs.CPSDelta), so a site that was contended during warmup but calmed
// down is not throttled forever.
const adaptiveWindow = 32

// capacityBits are the CPS reasons that signal a hardware resource was
// exhausted: SIZ (store-queue or deferred-queue overflow), and the ST/LD
// bits in their capacity roles (micro-DTLB pressure on stores, read-set
// eviction on loads). A transaction that overflows once tends to
// overflow every time — unless the failing attempts themselves warm the
// caches, which is exactly what the adaptive policy watches for.
const capacityBits = cps.SIZ | cps.LD | cps.ST

// Adaptive learns per-site abort histograms and shifts its stance per
// site. It starts from the paper policy's reactions and sharpens two of
// them with observed history:
//
//   - Capacity (SIZ/LD/ST) failures: the paper policy always spends the
//     full budget, betting that retries warm the cache (Section 6). The
//     adaptive policy takes that bet only while it keeps paying off — if
//     a site's recent failures are dominated by capacity reasons and
//     hardware commits at the site have stopped, it falls back
//     immediately, saving the doomed retries.
//   - Coherence (COH) failures: plain exponential backoff defeats
//     requester-wins livelock between two strands (Section 4), but under
//     genuine many-strand contention the backoff window re-fills with
//     conflicting retries. When COH dominates a site's recent window the
//     policy escalates Backoff to Throttle (a deeper window), the
//     admission-control stance of Section 7.2's future work.
//
// All learning is deterministic: decisions depend only on the history of
// CPS values observed at the site, never on host state. Instances are
// NOT safe for concurrent use from multiple host threads; under the
// simulator's baton discipline (and one instance per experiment cell)
// this is free.
type Adaptive struct {
	t     Tuning
	sites map[uint32]*siteState
}

// siteState is the learned state of one call site.
type siteState struct {
	hist *cps.Histogram // every failure ever observed at the site
	snap *cps.Histogram // copy of hist at the last stance refresh

	sinceRefresh int
	commits      uint64 // hardware commits at the site
	fallbacks    uint64 // blocks that left for the fallback path
	recentHW     bool   // a hardware commit happened since the last refresh

	// Learned stance, recomputed from the recent window at each refresh.
	capacityHopeless bool // capacity aborts dominate and retries stopped paying
	contended        bool // COH dominates: escalate Backoff to Throttle
}

// NewAdaptive builds an adaptive policy with the given tuning.
func NewAdaptive(t Tuning) *Adaptive {
	return &Adaptive{t: t, sites: make(map[uint32]*siteState)}
}

// Name implements Policy.
func (p *Adaptive) Name() string { return "adaptive" }

// Budget implements Policy.
func (p *Adaptive) Budget() float64 { return p.t.Budget }

// site returns (lazily creating) the state for one site. Creation is the
// only allocation the policy performs after warmup.
func (p *Adaptive) site(id uint32) *siteState {
	st := p.sites[id]
	if st == nil {
		st = &siteState{hist: cps.NewHistogram(), snap: cps.NewHistogram()}
		p.sites[id] = st
	}
	return st
}

// Decide implements Policy.
func (p *Adaptive) Decide(site uint32, attempt int, c cps.Bits) Decision {
	t := &p.t
	if c == cps.TCC {
		// The system's own abort: not evidence about this site's hardware
		// viability, so it is not recorded.
		return Decision{Action: t.TCCAction, Score: t.TCCWeight}
	}
	st := p.site(site)
	st.hist.Add(c)
	st.sinceRefresh++
	if st.sinceRefresh >= adaptiveWindow {
		st.refresh()
	}
	switch {
	case c.Has(cps.UCTI):
		// Companion bits may be misspeculation artifacts; cheap retry.
		return Decision{Action: Retry, Score: t.UCTIWeight}
	case c.Any(giveUp):
		return Decision{Action: Fallback}
	case c.Any(capacityBits):
		if st.capacityHopeless {
			return Decision{Action: Fallback}
		}
		return Decision{Action: Retry, Score: 1}
	case c.Has(cps.COH):
		if st.contended {
			return Decision{Action: Throttle, Score: 1}
		}
		return Decision{Action: Backoff, Score: 1}
	default:
		// ASYNC, EXOG, CTI: transient events unrelated to the block's
		// footprint; charge half, retry immediately.
		return Decision{Action: Retry, Score: 0.5}
	}
}

// refresh reclassifies the site from the failures observed since the
// last refresh. The recent window is the histogram delta, extracted with
// obs.CPSDelta — the same primitive the Section 6.1 profiler uses to
// attribute one attempt's failure.
func (st *siteState) refresh() {
	recent := obs.CPSDelta(st.snap, st.hist)
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
		st.capacityHopeless = capacity*4 >= n*3 && !st.recentHW
		st.contended = coh*2 >= n
	}
	st.snap = cps.NewHistogram()
	st.snap.Merge(st.hist)
	st.sinceRefresh = 0
	st.recentHW = false
}

// Done implements Policy: commits and fallbacks feed the stance. A
// hardware commit after at least one failure is direct evidence that
// retries still pay at this site, so it lifts a capacityHopeless verdict
// immediately instead of waiting for the next refresh.
func (p *Adaptive) Done(site uint32, attempts int, fellBack bool) {
	st := p.site(site)
	if fellBack {
		st.fallbacks++
		return
	}
	st.commits++
	if attempts > 1 {
		st.recentHW = true
		st.capacityHopeless = false
	}
}

// SiteHistogram returns a copy of the abort histogram learned for site,
// or nil if the site has never failed (for tests and reports).
func (p *Adaptive) SiteHistogram(site uint32) *cps.Histogram {
	st := p.sites[site]
	if st == nil {
		return nil
	}
	out := cps.NewHistogram()
	out.Merge(st.hist)
	return out
}
