package rocktm

import (
	"testing"

	"rocktm/internal/bench"
	"rocktm/internal/counter"
	"rocktm/internal/graphgen"
	"rocktm/internal/sim"
)

// The benchmarks mirror the paper's tables and figures at reduced scale:
// each runs one representative cell of the corresponding experiment and
// reports the simulated throughput (ops per simulated microsecond) as the
// figure's metric, alongside Go's own wall-clock ns/op for the simulator
// itself. Full sweeps are produced by cmd/figures.

// benchOptions returns a small, fast configuration.
func benchOptions(b *testing.B) bench.Options {
	return bench.Options{Threads: []int{4}, OpsPerThread: 50 + b.N%7, Seed: 1}
}

// reportFigure runs fig and reports the named curve's 4-thread throughput.
func reportFigure(b *testing.B, run func(bench.Options) (*bench.Figure, error), curve string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		fig, err := run(benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		v, ok := fig.ValueAt(curve, 4)
		if !ok {
			b.Fatalf("curve %q not found in %q", curve, fig.Title)
		}
		last = v
	}
	b.ReportMetric(last, "simOps/µs")
}

// BenchmarkCounterHTMBackoff is the Section 4 counter experiment (HTM with
// backoff at 4 threads).
func BenchmarkCounterHTMBackoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(4)
		cfg.MemWords = 1 << 18
		cfg.Quantum = 8
		cfg.MaxCycles = 1 << 44
		m := sim.New(cfg)
		ctr := counter.New(m)
		m.Run(func(s *sim.Strand) {
			for k := 0; k < 200; k++ {
				ctr.Inc(s, counter.HTMBackoff)
			}
		})
		if ctr.Value(m.Mem()) != 800 {
			b.Fatal("lost updates")
		}
	}
}

// BenchmarkFig1aPhTM / ...OneLock: hash table, key range 256 (Figure 1a).
func BenchmarkFig1aPhTM(b *testing.B)    { reportFigure(b, bench.Fig1a, "phtm") }
func BenchmarkFig1aHyTM(b *testing.B)    { reportFigure(b, bench.Fig1a, "hytm") }
func BenchmarkFig1aSTM(b *testing.B)     { reportFigure(b, bench.Fig1a, "stm") }
func BenchmarkFig1aSTMTL2(b *testing.B)  { reportFigure(b, bench.Fig1a, "stm-tl2") }
func BenchmarkFig1aOneLock(b *testing.B) { reportFigure(b, bench.Fig1a, "one-lock") }

// BenchmarkFig1bPhTM: hash table, key range 128,000 (Figure 1b).
func BenchmarkFig1bPhTM(b *testing.B) { reportFigure(b, bench.Fig1b, "phtm") }

// BenchmarkFig2aPhTM / Fig2b: red-black tree (Figure 2).
func BenchmarkFig2aPhTM(b *testing.B)   { reportFigure(b, bench.Fig2a, "phtm") }
func BenchmarkFig2bPhTM(b *testing.B)   { reportFigure(b, bench.Fig2b, "phtm") }
func BenchmarkFig2bSTMTL2(b *testing.B) { reportFigure(b, bench.Fig2b, "stm-tl2") }

// BenchmarkFig3aTLE / NoTM: STL vector under TLE vs one lock (Figure 3a).
func BenchmarkFig3aTLE(b *testing.B)  { reportFigure(b, bench.Fig3a, "htm.oneLock") }
func BenchmarkFig3aNoTM(b *testing.B) { reportFigure(b, bench.Fig3a, "noTM.oneLock") }

// BenchmarkFig3bTLE262: Java Hashtable, mix 2:6:2, TLE (Figure 3b).
func BenchmarkFig3bTLE262(b *testing.B) { reportFigure(b, bench.Fig3b, "2:6:2-TLE") }

// BenchmarkDCASList / HMList: the Section 4 set comparison.
func BenchmarkDCASList(b *testing.B) { reportFigure(b, bench.DCASFigure, "dcas-list") }
func BenchmarkHMList(b *testing.B)   { reportFigure(b, bench.DCASFigure, "juc-lockfree") }

// BenchmarkVolanoTLE: the VolanoMark-like chat workload with TLE enabled.
func BenchmarkVolanoTLE(b *testing.B) { reportFigure(b, bench.VolanoFigure, "TLE-enabled") }

// BenchmarkMSFOptLE / OptSky / OptLock: Figure 4 variants at 4 threads on a
// small roadmap; the metric is simulated milliseconds of running time.
func benchMSF(b *testing.B, variantName string) {
	b.Helper()
	n, edges := graphgen.RoadmapEdges(32, 32, 0.05, 1<<20, 1)
	var last float64
	for i := 0; i < b.N; i++ {
		run, err := bench.RunMSFGraph(variantName, n, edges, 4, 1, sim.SSE)
		if err != nil {
			b.Fatal(err)
		}
		last = run.Seconds * 1e3
	}
	b.ReportMetric(last, "simMs")
}

func BenchmarkMSFFig4(b *testing.B) { benchMSF(b, "msf-opt-le") }

// BenchmarkProfileSection61 runs the failure-analysis pipeline.
func BenchmarkProfileSection61(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := bench.ProfileReport(200, []int{1024}); len(rep.Rows) == 0 {
			b.Fatal("empty profile report")
		}
	}
}
