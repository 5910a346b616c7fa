package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// Export edge cases: the writers must stay well-formed for degenerate
// inputs — no runs deposited, runs with empty event slices, and event
// kinds newer than the writer (forward compatibility with added hooks).

func TestTraceSinkZeroRuns(t *testing.T) {
	var k TraceSink
	if k.Runs() != 0 || k.Events() != 0 {
		t.Fatalf("fresh sink reports %d runs / %d events", k.Runs(), k.Events())
	}
	var buf bytes.Buffer
	if err := k.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		Unit        string            `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty Chrome trace invalid: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) != 0 || doc.Unit != "ms" {
		t.Errorf("empty Chrome trace = %s", buf.Bytes())
	}
}

// A run that recorded nothing (e.g. a one-lock system under a tracer that
// only hooks transactions) still gets its process metadata so the label
// shows up in Perfetto.
func TestTraceSinkEmptyEventRun(t *testing.T) {
	var k TraceSink
	k.Add("idle-run", NewTracer(1, 1))
	var buf bytes.Buffer
	if err := k.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"process_name"`) || !strings.Contains(out, `"idle-run"`) {
		t.Errorf("empty-event run lost its process label: %s", out)
	}
	buf.Reset()
	if err := WriteTimeline(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty stream timeline wrote %q", buf.String())
	}
}

// An event kind this writer does not know must neither panic nor corrupt
// the document: the timeline prints its "?" mnemonic, the Chrome writer
// skips the body but keeps the thread metadata.
func TestExportUnknownEventKind(t *testing.T) {
	tr := NewTracer(1, 4)
	tr.SinkEvent(0, 10, EvTxBegin, 0)
	tr.SinkEvent(0, 20, EventKind(250), 7)
	tr.SinkEvent(0, 30, EvTxCommit, 1)
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, tr.Merged()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline dropped lines: %q", buf.String())
	}
	if !strings.Contains(lines[1], "?") {
		t.Errorf("unknown kind not rendered with ? mnemonic: %q", lines[1])
	}
	buf.Reset()
	var k TraceSink
	k.Add("run", tr)
	if err := k.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace with unknown kind invalid: %v", err)
	}
	// process_name, thread_name, tx-begin, tx-commit, txn span — the
	// unknown event contributes nothing but breaks nothing.
	var names []string
	for _, e := range doc.TraceEvents {
		names = append(names, e.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"process_name", "tx-begin", "tx-commit", "txn"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Chrome trace missing %q: %v", want, names)
		}
	}
}

// Counter tracks attach to the run with the matching label; unmatched
// labels deposit a counter-only run that still renders.
func TestAddCountersMergeAndStandalone(t *testing.T) {
	var k TraceSink
	tr := NewTracer(1, 1)
	tr.SinkEvent(0, 5, EvTxBegin, 0)
	k.Add("run-a", tr)
	k.AddCounters("run-a", 1.0, []CounterTrack{
		{Name: "abort_rate", Points: []CounterPoint{{Cycle: 0, Value: 0.25}}},
	})
	k.AddCounters("run-b", 2.0, []CounterTrack{
		{Name: "ops_per_usec", Points: []CounterPoint{{Cycle: 4000, Value: 3.5}}},
	})
	if k.Runs() != 2 {
		t.Fatalf("Runs() = %d, want 2 (merge into run-a, standalone run-b)", k.Runs())
	}
	var buf bytes.Buffer
	if err := k.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type counter struct {
		pid   int
		ts    float64
		value float64
	}
	got := map[string]counter{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "C" {
			got[e.Name] = counter{pid: e.Pid, ts: e.Ts, value: e.Args["value"].(float64)}
		}
	}
	a, ok := got["abort_rate"]
	if !ok || a.pid != 0 || a.value != 0.25 {
		t.Errorf("merged counter wrong: %+v (want pid 0, value 0.25)", got)
	}
	b, ok := got["ops_per_usec"]
	if !ok || b.pid != 1 || b.value != 3.5 {
		t.Errorf("standalone counter wrong: %+v (want pid 1, value 3.5)", got)
	}
	// 4000 cycles at 2 GHz = 2 us.
	if b.ts != 2.0 {
		t.Errorf("counter timestamp %v us, want 2.0 (freq-scaled)", b.ts)
	}
}

// The histogram's top bucket: the largest int64 latency must land in the
// final bucket without overflow, and quantiles never report past the
// observed maximum.
func TestLatencyTopBucketSaturation(t *testing.T) {
	if got, want := latBucketOf(math.MaxInt64), latBuckets-1; got != want {
		t.Fatalf("latBucketOf(MaxInt64) = %d, want %d (top bucket)", got, want)
	}
	r := NewLatencyRecorder()
	r.Record(math.MaxInt64)
	r.Record(1)
	if r.Count() != 2 || r.Max() != math.MaxInt64 {
		t.Fatalf("count/max = %d/%d", r.Count(), r.Max())
	}
	// The top bucket's upper edge overflows int64 arithmetic if computed
	// naively; the quantile path must clamp to the observed max instead.
	if got := r.Quantile(1.0); got != math.MaxInt64 {
		t.Errorf("Quantile(1.0) = %d, want MaxInt64", got)
	}
	sum := r.Summarize()
	if sum.Max != math.MaxInt64 || sum.P50 != 1 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.P999 > sum.Max {
		t.Errorf("p99.9 %d reported past the observed max %d", sum.P999, sum.Max)
	}
}

// A recorder holding a single sample reports that sample at every
// percentile — the percentile-at-max degenerate case.
func TestLatencySingleSampleAtMax(t *testing.T) {
	r := NewLatencyRecorder()
	const v = int64(1 << 40)
	r.Record(v)
	for _, q := range []float64{0.001, 0.5, 0.999, 1.0} {
		if got := r.Quantile(q); got != v {
			t.Errorf("Quantile(%v) = %d, want %d (clamped to observed max)", q, got, v)
		}
	}
}
