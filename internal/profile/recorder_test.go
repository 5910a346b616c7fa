package profile

import (
	"testing"

	"rocktm/internal/sim"
)

// nopCtx is a do-nothing core.Ctx so recorder overhead can be measured in
// isolation from the simulator.
type nopCtx struct{}

func (nopCtx) Load(sim.Addr) sim.Word    { return 0 }
func (nopCtx) Store(sim.Addr, sim.Word)  {}
func (nopCtx) Branch(uint32, bool, bool) {}
func (nopCtx) Div()                      {}
func (nopCtx) Call()                     {}
func (nopCtx) Strand() *sim.Strand       { return nil }

// recordOneOp drives the recorder through a representative operation: a
// tree-walk-sized read set plus a handful of writes, then a fill.
func recordOneOp(rec *recorder, p *OpProfile) {
	rec.reset(nopCtx{})
	for i := 0; i < 24; i++ {
		rec.Load(sim.Addr(i * sim.WordsPerLine))
	}
	for i := 0; i < 6; i++ {
		rec.Store(sim.Addr(i*sim.WordsPerLine), 1)
	}
	rec.fill(p)
}

// TestRecorderSteadyStateAllocFree guards the observability obligation on
// the Section 6.1 profiler: once its maps are warm, recording an operation
// must not allocate (an allocating recorder would skew the very run it is
// measuring via GC pauses in real time — and regress the profiler's speed).
func TestRecorderSteadyStateAllocFree(t *testing.T) {
	rec := newRecorder()
	var p OpProfile
	recordOneOp(rec, &p) // warm the maps
	allocs := testing.AllocsPerRun(100, func() { recordOneOp(rec, &p) })
	if allocs != 0 {
		t.Errorf("recorder allocates in steady state: %.1f allocs/op", allocs)
	}
	if p.ReadLines != 24 || p.WriteLines != 6 || p.Upgrades != 6 {
		t.Errorf("recorder miscounted: read=%d write=%d upgrades=%d", p.ReadLines, p.WriteLines, p.Upgrades)
	}
}

// BenchmarkRecorderOp measures the per-operation cost of the read/write-set
// recorder (reset + 24 loads + 6 stores + fill).
func BenchmarkRecorderOp(b *testing.B) {
	rec := newRecorder()
	var p OpProfile
	recordOneOp(rec, &p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recordOneOp(rec, &p)
	}
}
