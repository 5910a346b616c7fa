package obs

import "sort"

// Tracer collects cycle-timestamped events into per-strand append-only
// logs.
//
// A Tracer is an EventSink: attach it like any other sink. All recording
// happens under the machine baton (exactly one strand executes at a time),
// so the tracer needs no synchronization. Every event is kept, so an
// export holds the run's whole history: a log is an append-built slice,
// and recording allocates only when a log outgrows its capacity.
type Tracer struct {
	strands [][]Event
	freqGHz float64
}

// NewTracer builds a tracer for the given number of strands.
func NewTracer(strands int) *Tracer {
	return &Tracer{strands: make([][]Event, strands), freqGHz: 1}
}

// SetFreqGHz records the simulated clock frequency used to convert cycles
// to wall-clock microseconds in exports.
func (t *Tracer) SetFreqGHz(f float64) {
	if f > 0 {
		t.freqGHz = f
	}
}

// FreqGHz returns the configured simulated clock frequency.
func (t *Tracer) FreqGHz() float64 { return t.freqGHz }

// SinkEvent implements EventSink: it appends one event to strand's log.
func (t *Tracer) SinkEvent(strand int, cycle int64, kind EventKind, arg uint64) {
	t.strands[strand] = append(t.strands[strand], Event{
		Cycle:  cycle,
		Arg:    arg,
		Strand: int32(strand),
		Kind:   kind,
	})
}

// Merged returns every event across all strands in virtual-time order:
// ascending cycle, ties broken by strand ID, then by recording order
// within the strand (the sort is stable over the strand-ordered logs).
// The order is total, so the merged stream is deterministic for a
// deterministic run.
func (t *Tracer) Merged() []Event {
	var total int
	for _, log := range t.strands {
		total += len(log)
	}
	out := make([]Event, 0, total)
	for _, log := range t.strands {
		out = append(out, log...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		return a.Strand < b.Strand
	})
	return out
}
