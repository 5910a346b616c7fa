package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rocktm/internal/cps"
)

func TestRecordIsAllocationFree(t *testing.T) {
	tr := NewTracer(2, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.SinkEvent(0, 100, EvTxBegin, 0)
		tr.SinkEvent(1, 101, EvTxAbort, uint64(cps.COH))
	})
	if allocs != 0 {
		t.Fatalf("SinkEvent allocates: %.1f allocs/op", allocs)
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 6; i++ {
		tr.SinkEvent(0, int64(10+i), EvTxBegin, uint64(i))
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	evs := tr.Merged()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		wantArg := uint64(2 + i) // events 0 and 1 were overwritten
		if e.Arg != wantArg || e.Cycle != int64(12+i) {
			t.Errorf("event %d = {cycle %d arg %d}, want {cycle %d arg %d}",
				i, e.Cycle, e.Arg, 12+i, wantArg)
		}
	}
}

func TestMergedOrdersByCycleStrandSeq(t *testing.T) {
	tr := NewTracer(3, 16)
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
	tr := NewTracer(2, 64)
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

// A trace sink remembers how many events each deposited run's rings
// overwrote, so the export can say that it holds only the newest ones.
func TestTraceSinkCountsDroppedEvents(t *testing.T) {
	var k TraceSink
	small := NewTracer(2, 4)
	for i := 0; i < 7; i++ {
		small.SinkEvent(0, int64(i), EvTxBegin, 0) // wraps: 3 dropped
	}
	small.SinkEvent(1, 0, EvTxBegin, 0) // fits
	k.Add("small", small)
	k.Add("roomy", syntheticTracer())
	if got := k.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	if got := k.Events(); got != 5+10 {
		t.Errorf("Events = %d, want 15 retained", got)
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
