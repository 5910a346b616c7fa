package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace_event format, loadable in
// chrome://tracing and https://ui.perfetto.dev. Field order and the
// deterministic key order of Args (encoding/json sorts map keys) keep the
// exported bytes reproducible for reproducible runs.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// usOf converts a cycle count to microseconds at freq GHz.
func usOf(cycle int64, freqGHz float64) float64 {
	if freqGHz <= 0 {
		freqGHz = 1
	}
	return float64(cycle) / (freqGHz * 1e3)
}

// chromeEventsFor renders one run's merged event stream as trace_event
// entries under process id pid labelled label.
func chromeEventsFor(events []Event, freqGHz float64, pid int, label string) []chromeEvent {
	out := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
		Args: map[string]any{"name": label},
	}}
	seenStrand := map[int32]bool{}
	// Open-span state, per strand: hardware transactions cannot nest, and
	// we pair the most recent acquire per lock address.
	txOpen := map[int32]int64{}
	lockOpen := map[int32]map[uint64]int64{}
	for _, e := range events {
		if !seenStrand[e.Strand] {
			seenStrand[e.Strand] = true
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: int(e.Strand),
				Args: map[string]any{"name": fmt.Sprintf("strand %d", e.Strand)},
			})
		}
		ts := usOf(e.Cycle, freqGHz)
		switch e.Kind {
		case EvTxBegin:
			txOpen[e.Strand] = e.Cycle
			out = append(out, chromeEvent{
				Name: "tx-begin", Cat: "htm", Ph: "i", S: "t",
				Ts: ts, Pid: pid, Tid: int(e.Strand),
			})
		case EvTxCommit, EvTxAbort:
			name, args := "tx-commit", map[string]any{"outcome": "commit", "stores": e.Arg}
			if e.Kind == EvTxAbort {
				name = "tx-abort " + e.CPS().String()
				args = map[string]any{"outcome": "abort", "cps": e.CPS().String()}
			}
			out = append(out, chromeEvent{
				Name: name, Cat: "htm", Ph: "i", S: "t",
				Ts: ts, Pid: pid, Tid: int(e.Strand), Args: args,
			})
			if begin, ok := txOpen[e.Strand]; ok {
				delete(txOpen, e.Strand)
				out = append(out, chromeEvent{
					Name: "txn", Cat: "htm", Ph: "X",
					Ts: usOf(begin, freqGHz), Dur: usOf(e.Cycle-begin, freqGHz),
					Pid: pid, Tid: int(e.Strand), Args: args,
				})
			}
		case EvLockAcquire:
			if lockOpen[e.Strand] == nil {
				lockOpen[e.Strand] = map[uint64]int64{}
			}
			lockOpen[e.Strand][e.Arg] = e.Cycle
			out = append(out, chromeEvent{
				Name: "lock-acquire", Cat: "lock", Ph: "i", S: "t",
				Ts: ts, Pid: pid, Tid: int(e.Strand),
				Args: map[string]any{"addr": fmt.Sprintf("%#x", e.Arg)},
			})
		case EvLockRelease:
			if acq, ok := lockOpen[e.Strand][e.Arg]; ok {
				delete(lockOpen[e.Strand], e.Arg)
				out = append(out, chromeEvent{
					Name: fmt.Sprintf("lock %#x", e.Arg), Cat: "lock", Ph: "X",
					Ts: usOf(acq, freqGHz), Dur: usOf(e.Cycle-acq, freqGHz),
					Pid: pid, Tid: int(e.Strand),
				})
			}
		case EvModeSoftware, EvModeHardware, EvFallback, EvSWCommit, EvSWAbort:
			scope := "t"
			if e.Kind == EvModeSoftware || e.Kind == EvModeHardware {
				scope = "p" // phase changes are system-wide
			}
			out = append(out, chromeEvent{
				Name: e.Kind.String(), Cat: "tm", Ph: "i", S: scope,
				Ts: ts, Pid: pid, Tid: int(e.Strand),
				Args: map[string]any{"arg": e.Arg},
			})
		}
	}
	return out
}

// WriteTimeline writes events as a plain-text timeline, one line per event:
// cycle, strand, kind, and kind-specific detail. Output is byte-for-byte
// deterministic for a deterministic event stream, which is what the
// determinism tests compare.
func WriteTimeline(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		detail := ""
		switch e.Kind {
		case EvTxAbort:
			detail = e.CPS().String()
		case EvTxCommit:
			detail = fmt.Sprintf("stores=%d", e.Arg)
		case EvLockAcquire, EvLockRelease, EvFallback:
			if e.Arg != 0 {
				detail = fmt.Sprintf("addr=%#x", e.Arg)
			}
		case EvModeSoftware:
			detail = fmt.Sprintf("hold=%d", e.Arg)
		}
		if detail != "" {
			detail = "  " + detail
		}
		if _, err := fmt.Fprintf(bw, "%12d  s%02d  %s%s\n", e.Cycle, e.Strand, e.Kind, detail); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TraceSink accumulates the traces of several experiment runs (one machine
// each) and exports them as a single Chrome trace document, one "process"
// per run, so a whole `figures` invocation can be inspected side by side in
// Perfetto.
type TraceSink struct {
	runs []sinkRun
}

type sinkRun struct {
	label   string
	freqGHz float64
	events  []Event
	dropped uint64
	tracks  []CounterTrack
}

// Add deposits one finished run's trace under the given label: the
// tracer's merged event stream, its clock frequency and the number of
// events its rings overwrote.
func (k *TraceSink) Add(label string, t *Tracer) {
	k.runs = append(k.runs, sinkRun{label: label, freqGHz: t.FreqGHz(), events: t.Merged(), dropped: t.Dropped()})
}

// CounterPoint is one sample of a counter track: the simulated cycle it
// was taken at and its value.
type CounterPoint struct {
	Cycle int64
	Value float64
}

// CounterTrack is one named counter series — a windowed statistic such as
// throughput or abort rate sampled over time. Perfetto renders counter
// tracks as line charts stacked with the event timeline, which is how the
// timeseries layer's window series appear alongside raw trace events.
type CounterTrack struct {
	Name   string
	Points []CounterPoint
}

// AddCounters attaches counter tracks to the run with the given label, or
// deposits an events-free run if no deposited run matches — counter-only
// exports (timeline capture without event tracing) still render.
func (k *TraceSink) AddCounters(label string, freqGHz float64, tracks []CounterTrack) {
	for i := range k.runs {
		if k.runs[i].label == label {
			k.runs[i].tracks = append(k.runs[i].tracks, tracks...)
			return
		}
	}
	k.runs = append(k.runs, sinkRun{label: label, freqGHz: freqGHz, tracks: tracks})
}

// counterEventsFor renders one run's counter tracks as ph "C" trace
// events under process pid.
func counterEventsFor(tracks []CounterTrack, freqGHz float64, pid int) []chromeEvent {
	var out []chromeEvent
	for _, t := range tracks {
		for _, p := range t.Points {
			out = append(out, chromeEvent{
				Name: t.Name, Cat: "timeseries", Ph: "C",
				Ts: usOf(p.Cycle, freqGHz), Pid: pid, Tid: 0,
				Args: map[string]any{"value": p.Value},
			})
		}
	}
	return out
}

// Runs returns how many runs have been deposited.
func (k *TraceSink) Runs() int { return len(k.runs) }

// Events returns the number of events across all deposited runs.
func (k *TraceSink) Events() int {
	n := 0
	for _, r := range k.runs {
		n += len(r.events)
	}
	return n
}

// Dropped returns how many events the deposited runs lost to ring
// wrap-around; the export holds only each ring's newest events.
func (k *TraceSink) Dropped() uint64 {
	var n uint64
	for _, r := range k.runs {
		n += r.dropped
	}
	return n
}

// WriteChrome writes all deposited runs as one Chrome trace JSON document.
func (k *TraceSink) WriteChrome(w io.Writer) error {
	doc := chromeTrace{DisplayTimeUnit: "ms"}
	for i, r := range k.runs {
		doc.TraceEvents = append(doc.TraceEvents, chromeEventsFor(r.events, r.freqGHz, i, r.label)...)
		doc.TraceEvents = append(doc.TraceEvents, counterEventsFor(r.tracks, r.freqGHz, i)...)
	}
	return json.NewEncoder(w).Encode(doc)
}
