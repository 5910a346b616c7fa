package bench

import "testing"

// BenchmarkFleetCell runs one fleet cell: the fleet figure's first system
// and scenario, phtm/uniform, with a 10% cross-shard fraction, on 2 shards
// at 300 operations. The service tier drives each shard machine with one
// Run per batch flush and one per 2PC phase, so this is the benchmark for
// per-Run host cost: the scheduler's start-up, not the access path.
func BenchmarkFleetCell(b *testing.B) {
	b.ReportAllocs()
	o := Options{OpsPerThread: 300, Seed: 1}
	sb := tailSystems()[0]
	sc := fleetScenarios()[0]
	for i := 0; i < b.N; i++ {
		if _, err := runFleet(o, sc, sb, 2, 10, o.timelineWidth()); err != nil {
			b.Fatal(err)
		}
	}
}
