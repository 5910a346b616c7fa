package timeseries

import (
	"encoding/json"
	"reflect"
	"testing"

	"rocktm/internal/cps"
	"rocktm/internal/obs"
)

// Width handling: zero and negative select the default, narrower than
// MinWidth is clamped, anything else is taken as given.
func TestNewRecorderWidth(t *testing.T) {
	for _, tc := range []struct{ in, want int64 }{
		{0, DefaultWidth},
		{-5, DefaultWidth},
		{1, MinWidth},
		{MinWidth, MinWidth},
		{4096, 4096},
	} {
		if got := NewRecorder(tc.in).Width(); got != tc.want {
			t.Errorf("NewRecorder(%d).Width() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// Events land in the window covering their cycle: [i*width, (i+1)*width).
// Negative cycles (impossible under the monotonic strand clock, but the
// recorder must not corrupt itself) clamp to window 0.
func TestWindowAssignment(t *testing.T) {
	r := NewRecorder(MinWidth)
	r.SinkEvent(0, 0, obs.EvTxCommit, 0)
	r.SinkEvent(0, MinWidth-1, obs.EvTxCommit, 0)
	r.SinkEvent(1, MinWidth, obs.EvTxCommit, 0)
	r.SinkEvent(0, -7, obs.EvTxBegin, 0)
	s := r.Series()
	if len(s.Windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(s.Windows))
	}
	if s.Windows[0].Commits != 2 || s.Windows[1].Commits != 1 {
		t.Errorf("commit split = %d/%d, want 2/1", s.Windows[0].Commits, s.Windows[1].Commits)
	}
	if s.Windows[0].Begins != 1 {
		t.Errorf("negative cycle not clamped to window 0: begins=%d", s.Windows[0].Begins)
	}
	for i, w := range s.Windows {
		if w.Index != i || w.StartCycle != int64(i)*MinWidth {
			t.Errorf("window %d has Index=%d StartCycle=%d", i, w.Index, w.StartCycle)
		}
		if got := s.EndCycle(w); got != w.StartCycle+MinWidth {
			t.Errorf("window %d EndCycle=%d, want %d", i, got, w.StartCycle+MinWidth)
		}
	}
}

// Derived rates: abort rate over hardware attempts, fallback fraction
// over completions, and the per-bit CPS census of aborts.
func TestRatesAndCPSMix(t *testing.T) {
	r := NewRecorder(MinWidth)
	r.SinkEvent(0, 10, obs.EvTxCommit, 3)
	r.SinkEvent(0, 11, obs.EvTxAbort, uint64(cps.COH|cps.ST))
	r.SinkEvent(0, 12, obs.EvSWCommit, 0)
	r.SinkEvent(0, 13, obs.EvFallback, 0)
	r.SinkEvent(0, 14, obs.EvFallback, 0)
	r.SinkEvent(0, 15, obs.EvModeSoftware, 100)
	r.SinkEvent(0, 16, obs.EvModeHardware, 0)
	r.SinkEvent(0, 17, obs.EvSWAbort, 0)
	s := r.Series()
	w := s.Windows[0]
	if w.AbortRate != 0.5 {
		t.Errorf("abort rate = %v, want 0.5 (1 abort / 2 attempts)", w.AbortRate)
	}
	// Completions: 1 hw commit + 1 sw commit + 2 fallbacks = 4, of which 3
	// took a software/lock path.
	if w.FallbackFrac != 0.75 {
		t.Errorf("fallback frac = %v, want 0.75", w.FallbackFrac)
	}
	if w.CPS["COH"] != 1 || w.CPS["ST"] != 1 || len(w.CPS) != 2 {
		t.Errorf("CPS census = %v, want COH:1 ST:1", w.CPS)
	}
	if w.ToSoftware != 1 || w.ToHardware != 1 || w.SWAborts != 1 || w.SWCommits != 1 {
		t.Errorf("mode/software counts wrong: %+v", w)
	}
	if got := w.CPSShare(cps.COH); got != 1 {
		t.Errorf("CPSShare(COH) = %v, want 1", got)
	}
	// One abort carries both mask bits: the share is clamped to 1.
	if got := w.CPSShare(cps.COH | cps.ST); got != 1 {
		t.Errorf("CPSShare(COH|ST) = %v, want clamp to 1", got)
	}
	if got := w.CPSShare(cps.SIZ); got != 0 {
		t.Errorf("CPSShare(SIZ) = %v, want 0", got)
	}
}

// Lock hold time is attributed to the release window; the acquisition
// count to the acquire window. Releases with no matching open acquire
// (wrong address, or never acquired) are counted nowhere.
func TestLockHoldAttribution(t *testing.T) {
	r := NewRecorder(MinWidth)
	r.SinkEvent(0, 100, obs.EvLockAcquire, 0xA0)
	r.SinkEvent(0, 600, obs.EvLockRelease, 0xA0) // window 2, hold 500
	r.SinkEvent(1, 50, obs.EvLockRelease, 0xB0)  // never acquired: ignored
	r.SinkEvent(2, 60, obs.EvLockAcquire, 0xC0)
	r.SinkEvent(2, 70, obs.EvLockRelease, 0xDD) // address mismatch: ignored
	s := r.Series()
	if got := s.Windows[0].LockAcquires; got != 2 {
		t.Errorf("window 0 acquires = %d, want 2", got)
	}
	if got := s.Windows[0].LockHoldCycles; got != 0 {
		t.Errorf("window 0 hold = %d, want 0 (hold belongs to the release window)", got)
	}
	if got := s.Windows[2].LockHoldCycles; got != 500 {
		t.Errorf("window 2 hold = %d, want 500", got)
	}
	if got := s.Windows[1].LockHoldCycles; got != 0 {
		t.Errorf("window 1 hold = %d, want 0", got)
	}
}

// Latencies build per-window percentile digests, throughput converts the
// op count via the window's wall-clock span, and windows without ops
// report all-zero latency fields.
func TestLatencyWindows(t *testing.T) {
	r := NewRecorder(MinWidth)
	r.SetFreqGHz(2)
	for i := 0; i < 64; i++ {
		r.RecordLatencyAt(10+int64(i), 16)
	}
	r.RecordLatencyAt(100, 1000) // same window, one slow op
	r.SinkEvent(0, MinWidth+5, obs.EvTxCommit, 0)
	s := r.Series()
	if s.FreqGHz != 2 {
		t.Fatalf("FreqGHz = %v, want 2", s.FreqGHz)
	}
	w := s.Windows[0]
	if w.Ops != 65 {
		t.Fatalf("ops = %d, want 65", w.Ops)
	}
	// 256 cycles at 2 GHz = 0.128 us.
	want := 65 / (float64(MinWidth) / (2 * 1e3))
	if w.Throughput != want {
		t.Errorf("throughput = %v, want %v", w.Throughput, want)
	}
	if w.P50 != 16 || w.Max != 1000 {
		t.Errorf("p50/max = %d/%d, want 16/1000", w.P50, w.Max)
	}
	if w.P50 > w.P90 || w.P90 > w.P99 || w.P99 > w.P999 || w.P999 > w.Max {
		t.Errorf("percentiles not monotone: %+v", w)
	}
	if q := s.Windows[1]; q.Ops != 0 || q.P50 != 0 || q.Max != 0 || q.Throughput != 0 {
		t.Errorf("op-free window carries latency stats: %+v", q)
	}
}

// The series keeps interior quiet windows (the time axis stays honest)
// and truncates only after the last active one.
func TestSeriesTruncation(t *testing.T) {
	r := NewRecorder(MinWidth)
	r.SinkEvent(0, 10, obs.EvTxCommit, 0)
	r.SinkEvent(0, 3*MinWidth+1, obs.EvTxCommit, 0)
	s := r.Series()
	if len(s.Windows) != 4 {
		t.Fatalf("got %d windows, want 4 (windows 1-2 quiet but interior)", len(s.Windows))
	}
	for _, i := range []int{1, 2} {
		if s.Windows[i].Commits != 0 || s.Windows[i].Ops != 0 {
			t.Errorf("interior window %d not quiet: %+v", i, s.Windows[i])
		}
	}
	if empty := NewRecorder(MinWidth).Series(); len(empty.Windows) != 0 {
		t.Errorf("fresh recorder yields %d windows, want 0", len(empty.Windows))
	}
}

// A series must survive a JSON round trip exactly — it rides through the
// runner's content-addressed cache as part of cell payloads.
func TestSeriesJSONRoundTrip(t *testing.T) {
	r := NewRecorder(MinWidth)
	r.SetFreqGHz(1.5)
	r.SinkEvent(0, 1, obs.EvTxBegin, 0)
	r.SinkEvent(0, 2, obs.EvTxAbort, uint64(cps.COH))
	r.SinkEvent(0, 3, obs.EvTxBegin, 0)
	r.SinkEvent(0, 9, obs.EvTxCommit, 2)
	r.RecordLatencyAt(9, 8)
	r.SinkEvent(0, MinWidth+1, obs.EvLockAcquire, 0x40)
	r.SinkEvent(0, MinWidth+9, obs.EvLockRelease, 0x40)
	s := r.Series()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Series
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("series changed across JSON round trip:\n%+v\n%+v", s, got)
	}
	b2, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Errorf("re-marshal not byte-identical:\n%s\n%s", b, b2)
	}
}

// The zero-perturbation contract's host half: once a window exists (its
// latency histogram allocated by the first op), folding events and
// latencies into it allocates nothing.
func TestSteadyStateAllocationFree(t *testing.T) {
	r := NewRecorder(MinWidth)
	r.SinkEvent(0, 10, obs.EvLockAcquire, 0x40) // warm the strand-0 lock slot
	r.RecordLatencyAt(10, 5)                    // warm window 0's histogram
	allocs := testing.AllocsPerRun(200, func() {
		r.SinkEvent(0, 11, obs.EvTxBegin, 0)
		r.SinkEvent(0, 12, obs.EvTxAbort, uint64(cps.COH|cps.ST))
		r.SinkEvent(0, 13, obs.EvTxCommit, 1)
		r.SinkEvent(0, 14, obs.EvLockAcquire, 0x40)
		r.SinkEvent(0, 15, obs.EvLockRelease, 0x40)
		r.RecordLatencyAt(16, 7)
	})
	if allocs != 0 {
		t.Errorf("steady-state intake allocates %.1f times per op, want 0", allocs)
	}
}

// A recorder built after another was recycled draws that one's window
// histograms from the pool, and its series must equal the first
// recorder's for the same stream; the recycled recorder reads empty.
func TestRecorderRecycleSeriesLikeFresh(t *testing.T) {
	feed := func(r *Recorder) {
		v := uint64(7)
		for i := int64(0); i < 4000; i++ {
			v = v*6364136223846793005 + 1442695040888963407
			cycle := i * 37
			r.SinkEvent(int(v%4), cycle, obs.EvTxCommit, 0)
			r.RecordLatencyAt(cycle, int64(v>>40))
		}
	}
	first := NewRecorder(MinWidth)
	feed(first)
	want := first.Series()
	first.Recycle()
	if s := first.Series(); len(s.Windows) != 0 {
		t.Fatalf("recycled recorder still holds %d windows", len(s.Windows))
	}
	second := NewRecorder(MinWidth)
	feed(second)
	if got := second.Series(); !reflect.DeepEqual(got, want) {
		t.Fatal("a recorder drawing recycled histograms recorded a different series")
	}
	second.Recycle()
}
