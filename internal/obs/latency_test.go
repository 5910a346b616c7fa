package obs

import (
	"testing"
)

// Latencies below 2^latSubBits are exact: each value owns a unit bucket
// whose upper edge is the value itself.
func TestLatencyBucketsExactBelowSub(t *testing.T) {
	for v := int64(0); v < latSub; v++ {
		b := latBucketOf(v)
		if b != int(v) {
			t.Fatalf("latBucketOf(%d) = %d, want %d", v, b, v)
		}
		if m := latBucketMax(b); m != v {
			t.Fatalf("latBucketMax(%d) = %d, want %d", b, m, v)
		}
	}
}

// Above the exact range the bucket upper edge over-reports by at most
// 1/latSub of the value (one sub-bucket width).
func TestLatencyBucketRelativeError(t *testing.T) {
	values := []int64{latSub, latSub + 1, 100, 1000, 12345, 1 << 20, (1 << 40) + 12345, 1<<62 + 999}
	for _, v := range values {
		b := latBucketOf(v)
		m := latBucketMax(b)
		if m < v {
			t.Errorf("bucket upper edge %d below value %d", m, v)
		}
		if err := m - v; err > v/latSub {
			t.Errorf("value %d: upper edge %d over-reports by %d > %d (1/%d relative)",
				v, m, err, v/latSub, latSub)
		}
	}
}

// Bucket edges are strictly increasing, so the cumulative scan in Quantile
// walks a proper partition of the value range.
func TestLatencyBucketEdgesMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < latBuckets; i++ {
		m := latBucketMax(i)
		if m <= prev {
			t.Fatalf("bucket %d upper edge %d not above previous %d", i, m, prev)
		}
		prev = m
	}
}

func TestLatencyQuantiles(t *testing.T) {
	r := NewLatencyRecorder()
	if got := r.Quantile(0.5); got != 0 {
		t.Fatalf("empty recorder quantile = %d, want 0", got)
	}
	const n = 1000
	for v := int64(1); v <= n; v++ {
		r.Record(v)
	}
	if r.Count() != n {
		t.Fatalf("count = %d, want %d", r.Count(), n)
	}
	if r.Max() != n {
		t.Fatalf("max = %d, want %d", r.Max(), n)
	}
	checks := []struct {
		q    float64
		want int64
	}{{0.50, 500}, {0.90, 900}, {0.99, 990}, {1.0, 1000}}
	for _, c := range checks {
		got := r.Quantile(c.q)
		if got < c.want {
			t.Errorf("q=%g: %d under-reports true quantile %d", c.q, got, c.want)
		}
		if got > c.want+c.want/latSub {
			t.Errorf("q=%g: %d over-reports %d beyond the 1/%d bound", c.q, got, c.want, latSub)
		}
	}
	s := r.Summarize()
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.P999 || s.P999 > s.Max {
		t.Errorf("summary percentiles not monotone: %+v", s)
	}
	if s.Count != n || s.Max != n {
		t.Errorf("summary count/max: %+v", s)
	}
}

// Negative latencies clamp to zero instead of corrupting a bucket index.
func TestLatencyRecordClampsNegative(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(-5)
	if r.Count() != 1 || r.Max() != 0 || r.Quantile(1) != 0 {
		t.Fatalf("negative record mishandled: n=%d max=%d", r.Count(), r.Max())
	}
}

// The steady-state Record path must be allocation-free: recorders are
// attached to simulation driver loops and a per-op allocation would both
// slow the host and churn the GC mid-experiment.
func TestLatencyRecordAllocationFree(t *testing.T) {
	r := NewLatencyRecorder()
	v := int64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(v)
		v = (v*2 + 1) % (1 << 40)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}

func BenchmarkLatencyRecord(b *testing.B) {
	r := NewLatencyRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(int64(i)&0xfffff + 1)
	}
}

// raceEnabled is set under the race detector (race_test.go), where
// sync.Pool drops a quarter of its Puts at random.
var raceEnabled bool

// A recycled recorder comes back empty — count, max and every quantile 0 —
// and then summarises a sample stream exactly as a new recorder does.
// sync.Pool may hand out another recorder than the one just recycled, so
// the check runs on each draw that returns it, and at least one must.
func TestLatencyRecorderRecycle(t *testing.T) {
	record := func(r *LatencyRecorder, seed uint64) {
		v := seed
		for i := 0; i < 5000; i++ {
			v = v*6364136223846793005 + 1442695040888963407
			r.Record(int64(v >> (24 + v%32)))
		}
	}
	reused := 0
	for trial := uint64(1); trial <= 20; trial++ {
		old := NewLatencyRecorder()
		record(old, trial)
		old.Recycle()
		r := NewLatencyRecorder()
		if r != old {
			continue
		}
		reused++
		if r.Count() != 0 || r.Max() != 0 || r.Summarize() != (LatencySummary{}) {
			t.Fatalf("recycled recorder not empty: %+v", r.Summarize())
		}
		for _, q := range []float64{0.001, 0.5, 0.9, 0.99, 0.999, 1} {
			if got := r.Quantile(q); got != 0 {
				t.Fatalf("recycled recorder: quantile %g = %d, want 0", q, got)
			}
		}
		fresh := &LatencyRecorder{}
		record(r, 100+trial)
		record(fresh, 100+trial)
		if *r != *fresh || r.Summarize() != fresh.Summarize() {
			t.Fatalf("recycled recorder summarises %+v, a new one %+v", r.Summarize(), fresh.Summarize())
		}
	}
	if reused == 0 && !raceEnabled {
		t.Fatal("the pool never handed back a recycled recorder")
	}
}
