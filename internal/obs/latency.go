package obs

import (
	"fmt"
	"math/bits"
	"sync"
)

// Log-bucketed operation-latency histogram.
//
// The recorder covers the full int64 cycle range with bounded error: values
// below 2^latSubBits land in exact unit buckets, larger values land in
// 2^latSubBits logarithmically spaced sub-buckets per power of two, so the
// relative quantile error is at most 1/2^latSubBits ≈ 3%. Everything is a
// fixed-size array owned by the recorder — Record performs no allocation,
// no locking (experiment strands run under the machine baton) and no
// floating-point math, so attaching a recorder to a driver loop cannot
// perturb a deterministic simulation.
const (
	latSubBits = 5 // 32 sub-buckets per octave
	latSub     = 1 << latSubBits
	// latBuckets: latSub exact unit buckets + one octave of latSub
	// sub-buckets for every bit length in (latSubBits, 63].
	latBuckets = latSub + (63-latSubBits)*latSub
)

// LatencyRecorder accumulates per-operation latencies measured in
// simulated cycles. The zero value is not ready for use; call
// NewLatencyRecorder (the counts array is large enough that recorders are
// shared per run, not per strand — the baton discipline makes that safe).
type LatencyRecorder struct {
	counts [latBuckets]uint64
	n      uint64
	sum    uint64
	max    int64
}

// latencyPool holds recycled recorders. A recorder is 15 KB (the 16 KB size
// class), and one is made per run, per fleet shard and per timeseries
// window that sees a latency; the runner's workers draw and return them
// concurrently, so the pool is a sync.Pool.
var latencyPool sync.Pool

// NewLatencyRecorder returns an empty recorder, drawn from the pool of
// recycled ones when it holds one.
func NewLatencyRecorder() *LatencyRecorder {
	if r, _ := latencyPool.Get().(*LatencyRecorder); r != nil {
		*r = LatencyRecorder{}
		return r
	}
	return &LatencyRecorder{}
}

// Recycle hands r to the pool NewLatencyRecorder draws from. Call it only
// after r's last use: a later NewLatencyRecorder may return r emptied.
func (r *LatencyRecorder) Recycle() { latencyPool.Put(r) }

// latBucketOf maps a non-negative latency to its bucket index.
func latBucketOf(v int64) int {
	if v < latSub {
		return int(v)
	}
	l := bits.Len64(uint64(v)) // > latSubBits
	// Top latSubBits bits of the mantissa below the leading one.
	sub := int((uint64(v) >> (l - 1 - latSubBits)) & (latSub - 1))
	return latSub + (l-1-latSubBits)*latSub + sub
}

// latBucketMax returns the largest value that maps to bucket i — the
// conservative (upper-bound) representative Quantile reports.
func latBucketMax(i int) int64 {
	if i < latSub {
		return int64(i)
	}
	oct := (i - latSub) / latSub // octave above the exact range
	sub := (i - latSub) % latSub // sub-bucket within the octave
	width := int64(1) << oct     // values per sub-bucket in this octave
	base := int64(1) << (oct + latSubBits)
	return base + int64(sub+1)*width - 1
}

// Record notes one operation latency in cycles. Negative latencies are
// clamped to zero (they cannot occur under the monotonic strand clock, but
// the recorder must never corrupt its buckets). Allocation-free.
func (r *LatencyRecorder) Record(cycles int64) {
	if cycles < 0 {
		cycles = 0
	}
	r.counts[latBucketOf(cycles)]++
	r.n++
	r.sum += uint64(cycles)
	if cycles > r.max {
		r.max = cycles
	}
}

// Count returns the number of recorded operations.
func (r *LatencyRecorder) Count() uint64 { return r.n }

// Max returns the exact maximum recorded latency.
func (r *LatencyRecorder) Max() int64 { return r.max }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of the
// recorded latencies: the upper edge of the bucket holding the ceil(q*n)-th
// smallest sample (exact for latencies below 2^5 cycles, within 1/32
// relative error above). Returns 0 when nothing was recorded.
func (r *LatencyRecorder) Quantile(q float64) int64 {
	if r.n == 0 {
		return 0
	}
	rank := uint64(q * float64(r.n))
	if rank == 0 {
		rank = 1
	}
	if rank > r.n {
		rank = r.n
	}
	var seen uint64
	for i, c := range r.counts {
		seen += c
		if seen >= rank {
			m := latBucketMax(i)
			if m > r.max {
				m = r.max // never report past the observed maximum
			}
			return m
		}
	}
	return r.max
}

// LatencySummary is the fixed percentile digest figures publish: the
// paper-style tail view (p50/p90/p99/p99.9) plus the exact count and max.
// All latencies are simulated cycles.
type LatencySummary struct {
	Count uint64 `json:"count"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
	P999  int64  `json:"p999"`
	Max   int64  `json:"max"`
}

// Summarize digests the recorder into the standard percentile set.
func (r *LatencyRecorder) Summarize() LatencySummary {
	return LatencySummary{
		Count: r.n,
		P50:   r.Quantile(0.50),
		P90:   r.Quantile(0.90),
		P99:   r.Quantile(0.99),
		P999:  r.Quantile(0.999),
		Max:   r.max,
	}
}

// String renders the summary compactly for notes and logs.
func (s LatencySummary) String() string {
	return fmt.Sprintf("lat p50=%d p90=%d p99=%d p99.9=%d max=%d (n=%d, cycles)",
		s.P50, s.P90, s.P99, s.P999, s.Max, s.Count)
}

// LatencySink receives time-stamped operation latencies: cycle is the
// operation's completion time on the recording strand's clock, latency the
// begin-to-completion cost in cycles. It is the timeseries counterpart of
// LatencyRecorder — a windowed recorder implements it to build per-window
// latency histograms. Implementations follow the same observation-only
// contract as EventSink: no simulated cycles, no simulated randomness, no
// steady-state allocation.
type LatencySink interface {
	RecordLatencyAt(cycle, latency int64)
}
