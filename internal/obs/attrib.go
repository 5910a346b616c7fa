package obs

import (
	"sort"

	"rocktm/internal/cps"
)

// AbortProfile is the fold of a run's transaction events: how many
// hardware transactions began, committed and aborted, and the distribution
// of CPS values over the aborts — the raw material of the paper's Table 4
// abort-attribution breakdowns. It is an EventSink, so it folds the live
// hook-point stream and never loses an event.
type AbortProfile struct {
	Begins    uint64
	Commits   uint64
	Aborts    uint64
	Fallbacks uint64
	SWCommits uint64
	// Hist counts exact CPS register values over aborts.
	Hist *cps.Histogram
}

// NewAbortProfile returns an empty profile ready to attach as a sink.
func NewAbortProfile() *AbortProfile { return &AbortProfile{Hist: cps.NewHistogram()} }

// SinkEvent implements EventSink: it folds one hook-point event.
func (p *AbortProfile) SinkEvent(_ int, _ int64, kind EventKind, arg uint64) {
	switch kind {
	case EvTxBegin:
		p.Begins++
	case EvTxCommit:
		p.Commits++
	case EvTxAbort:
		p.Aborts++
		p.Hist.Add(cps.Bits(arg))
	case EvFallback:
		p.Fallbacks++
	case EvSWCommit:
		p.SWCommits++
	}
}

// AbortRate is the fraction of begun transactions that aborted.
func (p *AbortProfile) AbortRate() float64 {
	if p.Begins == 0 {
		return 0
	}
	return float64(p.Aborts) / float64(p.Begins)
}

// CPSCount is one row of a rendered CPS histogram.
type CPSCount struct {
	Value    string  `json:"cps"`
	Count    uint64  `json:"count"`
	Fraction float64 `json:"fraction"`
}

// CPSDelta lists the CPS observations present in after but not in before
// (two snapshots of one growing histogram). It replaces the bespoke
// histogram-diff loops that per-package profilers used to carry.
func CPSDelta(before, after *cps.Histogram) []cps.Bits {
	var out []cps.Bits
	for _, e := range after.Entries() {
		delta := e.Count - before.Count(e.Value)
		for i := uint64(0); i < delta; i++ {
			out = append(out, e.Value)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
