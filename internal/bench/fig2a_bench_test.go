package bench

import "testing"

// BenchmarkFig2aCell is the end-to-end hot-path benchmark: one small
// serial fig2a matrix (every system at 4 threads, 300 ops/thread), run
// on the nil pool: one worker, no cache. It exercises machine
// construction, the baton scheduler, TLBs, caches and the transaction
// paths exactly as `figures -exp fig2a` does.
func BenchmarkFig2aCell(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := Options{Threads: []int{4}, OpsPerThread: 300, Seed: 1}
		if _, err := Fig2a(o); err != nil {
			b.Fatal(err)
		}
	}
}
