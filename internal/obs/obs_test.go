package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rocktm/internal/cps"
)

// Recording is allocation-free per event, amortized: a strand's log
// allocates only when append grows it, so 2^16 more events on each of
// two strands cost a few dozen allocations in all.
func TestRecordIsAllocationFree(t *testing.T) {
	const perStrand = 1 << 16
	tr := NewTracer(2)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < perStrand; i++ {
			tr.SinkEvent(0, int64(i), EvTxBegin, 0)
			tr.SinkEvent(1, int64(i), EvTxAbort, uint64(cps.COH))
		}
	})
	if allocs > 2*40 {
		t.Fatalf("recording %d events allocated %.0f times, want only log growth", 2*perStrand, allocs)
	}
}

// longTracer records n events on one strand, at cycles 10.. with args 0...
func longTracer(n int) *Tracer {
	tr := NewTracer(1)
	for i := 0; i < n; i++ {
		tr.SinkEvent(0, int64(10+i), EvTxBegin, uint64(i))
	}
	return tr
}

// The tracer keeps every event, in order, however many a strand records.
func TestTracerKeepsEveryEvent(t *testing.T) {
	const n = 1000
	evs := longTracer(n).Merged()
	if len(evs) != n {
		t.Fatalf("kept %d events, want %d", len(evs), n)
	}
	for i, e := range evs {
		if e.Arg != uint64(i) || e.Cycle != int64(10+i) {
			t.Fatalf("event %d = {cycle %d arg %d}, want {cycle %d arg %d}",
				i, e.Cycle, e.Arg, 10+i, i)
		}
	}
}

// A trace sink counts every event of every run deposited in it.
func TestTraceSinkCountsEveryEvent(t *testing.T) {
	const n = 1000
	var k TraceSink
	k.Add("long", longTracer(n))
	k.Add("short", syntheticTracer())
	if got := k.Events(); got != n+10 {
		t.Errorf("Events = %d, want %d", got, n+10)
	}
}

func TestMergedOrdersByCycleStrandSeq(t *testing.T) {
	tr := NewTracer(3)
	tr.SinkEvent(2, 50, EvTxBegin, 0)
	tr.SinkEvent(0, 50, EvTxBegin, 0)
	tr.SinkEvent(0, 50, EvTxCommit, 0) // same cycle, later seq
	tr.SinkEvent(1, 40, EvTxBegin, 0)
	tr.SinkEvent(1, 60, EvTxAbort, uint64(cps.SIZ))
	evs := tr.Merged()
	type key struct {
		cycle  int64
		strand int32
		kind   EventKind
	}
	want := []key{
		{40, 1, EvTxBegin},
		{50, 0, EvTxBegin},
		{50, 0, EvTxCommit},
		{50, 2, EvTxBegin},
		{60, 1, EvTxAbort},
	}
	if len(evs) != len(want) {
		t.Fatalf("merged %d events, want %d", len(evs), len(want))
	}
	for i, w := range want {
		e := evs[i]
		if e.Cycle != w.cycle || e.Strand != w.strand || e.Kind != w.kind {
			t.Errorf("merged[%d] = {%d s%d %s}, want {%d s%d %s}",
				i, e.Cycle, e.Strand, e.Kind, w.cycle, w.strand, w.kind)
		}
	}
}

func syntheticTracer() *Tracer {
	tr := NewTracer(2)
	tr.SetFreqGHz(2.3)
	tr.SinkEvent(0, 10, EvTxBegin, 0)
	tr.SinkEvent(0, 30, EvTxAbort, uint64(cps.COH))
	tr.SinkEvent(0, 35, EvTxBegin, 0)
	tr.SinkEvent(0, 60, EvTxCommit, 3)
	tr.SinkEvent(1, 12, EvLockAcquire, 0x1c0)
	tr.SinkEvent(1, 44, EvLockRelease, 0x1c0)
	tr.SinkEvent(1, 50, EvTxBegin, 0)
	tr.SinkEvent(1, 70, EvTxAbort, uint64(cps.SIZ|cps.ST))
	tr.SinkEvent(1, 72, EvFallback, 0x1c0)
	tr.SinkEvent(1, 90, EvSWCommit, 0)
	return tr
}

func syntheticEvents() []Event { return syntheticTracer().Merged() }

func TestChromeTraceParsesAndPairsSpans(t *testing.T) {
	var k TraceSink
	k.Add("unit", syntheticTracer())
	var buf bytes.Buffer
	if err := k.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	var txnSpans, lockSpans int
	for _, e := range doc.TraceEvents {
		counts[e.Name]++
		if e.Name == "txn" && e.Ph == "X" {
			txnSpans++
			if e.Dur <= 0 {
				t.Errorf("txn span has non-positive duration %v", e.Dur)
			}
		}
		if strings.HasPrefix(e.Name, "lock 0x") && e.Ph == "X" {
			lockSpans++
		}
	}
	if counts["tx-begin"] != 3 {
		t.Errorf("tx-begin instants = %d, want 3", counts["tx-begin"])
	}
	if counts["tx-abort COH"] != 1 || counts["tx-abort SIZ|ST"] != 1 {
		t.Errorf("abort instants missing CPS names: %v", counts)
	}
	if txnSpans != 3 {
		t.Errorf("txn spans = %d, want 3 (two aborts + one commit)", txnSpans)
	}
	if lockSpans != 1 {
		t.Errorf("lock spans = %d, want 1", lockSpans)
	}
}

func TestTimelineIsDeterministic(t *testing.T) {
	evs := syntheticEvents()
	var a, b bytes.Buffer
	if err := WriteTimeline(&a, evs); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimeline(&b, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of the same stream differ")
	}
	if !strings.Contains(a.String(), "tx-abort  SIZ|ST") {
		t.Errorf("timeline missing CPS detail:\n%s", a.String())
	}
}

func TestAttributeFoldsStream(t *testing.T) {
	p := NewAbortProfile()
	for _, e := range syntheticEvents() {
		p.SinkEvent(int(e.Strand), e.Cycle, e.Kind, e.Arg)
	}
	if p.Begins != 3 || p.Commits != 1 || p.Aborts != 2 || p.Fallbacks != 1 || p.SWCommits != 1 {
		t.Errorf("profile = %+v", p)
	}
	if got := p.AbortRate(); got < 0.66 || got > 0.67 {
		t.Errorf("AbortRate = %v, want 2/3", got)
	}
	if p.Hist.Count(cps.COH) != 1 || p.Hist.Count(cps.SIZ|cps.ST) != 1 || p.Hist.Total() != 2 {
		t.Errorf("CPS histogram = %v", p.Hist.Entries())
	}
}

func TestCPSDelta(t *testing.T) {
	before := cps.NewHistogram()
	before.Add(cps.COH)
	after := cps.NewHistogram()
	after.Merge(before)
	after.Add(cps.COH)
	after.Add(cps.SIZ | cps.ST)
	after.Add(cps.UCTI)
	got := CPSDelta(before, after)
	want := []cps.Bits{cps.COH, cps.SIZ | cps.ST, cps.UCTI}
	if len(got) != len(want) {
		t.Fatalf("CPSDelta = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CPSDelta = %v, want %v", got, want)
		}
	}
}
