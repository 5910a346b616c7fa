package obs

import "sort"

// DefaultPerStrandEvents is the default per-strand ring capacity: enough
// for the experiment scales in this repository without rebuffering, small
// enough that a 64-strand tracer stays a few megabytes.
const DefaultPerStrandEvents = 1 << 16

// Tracer collects cycle-timestamped events into per-strand ring buffers.
//
// A Tracer is an EventSink: attach it like any other sink. All recording
// happens under the machine baton (exactly one strand executes at a time),
// so the tracer needs no synchronization. SinkEvent is allocation-free:
// the rings are sized up front and old events are overwritten (and
// counted as dropped) once a ring wraps — tracing can never abort or slow
// a run, only lose its own oldest history.
type Tracer struct {
	strands []ring
	freqGHz float64
}

type ring struct {
	events  []Event
	next    int    // write cursor
	seq     uint32 // per-strand sequence number
	total   uint64 // events ever recorded
	wrapped bool
}

// NewTracer builds a tracer for the given number of strands with the given
// per-strand ring capacity (<=0 selects DefaultPerStrandEvents).
func NewTracer(strands, perStrandCap int) *Tracer {
	if perStrandCap <= 0 {
		perStrandCap = DefaultPerStrandEvents
	}
	t := &Tracer{strands: make([]ring, strands), freqGHz: 1}
	for i := range t.strands {
		t.strands[i].events = make([]Event, perStrandCap)
	}
	return t
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

// SinkEvent implements EventSink: it appends one event to strand's ring.
// It never allocates and never fails; when the ring is full the oldest
// event is overwritten.
func (t *Tracer) SinkEvent(strand int, cycle int64, kind EventKind, arg uint64) {
	b := &t.strands[strand]
	b.events[b.next] = Event{
		Cycle:  cycle,
		Arg:    arg,
		Seq:    b.seq,
		Strand: int32(strand),
		Kind:   kind,
	}
	b.seq++
	b.total++
	b.next++
	if b.next == len(b.events) {
		b.next = 0
		b.wrapped = true
	}
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	var n uint64
	for i := range t.strands {
		b := &t.strands[i]
		if b.wrapped {
			n += b.total - uint64(len(b.events))
		}
	}
	return n
}

// strandEvents returns strand i's retained events oldest-first.
func (t *Tracer) strandEvents(i int) []Event {
	b := &t.strands[i]
	if !b.wrapped {
		return b.events[:b.next]
	}
	out := make([]Event, 0, len(b.events))
	out = append(out, b.events[b.next:]...)
	out = append(out, b.events[:b.next]...)
	return out
}

// Merged returns every retained event across all strands in virtual-time
// order: ascending cycle, ties broken by strand ID, then by per-strand
// sequence. The ordering key is a total order, so the merged stream is
// deterministic for a deterministic run.
func (t *Tracer) Merged() []Event {
	var total int
	for i := range t.strands {
		b := &t.strands[i]
		if b.wrapped {
			total += len(b.events)
		} else {
			total += b.next
		}
	}
	out := make([]Event, 0, total)
	for i := range t.strands {
		out = append(out, t.strandEvents(i)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Strand != b.Strand {
			return a.Strand < b.Strand
		}
		return a.Seq < b.Seq
	})
	return out
}
