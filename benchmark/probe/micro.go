package main

import (
	"time"

	"rocktm/benchmark/stats"
	"rocktm/internal/core"
	"rocktm/internal/hashtable"
	"rocktm/internal/locktm"
	"rocktm/internal/obs"
	"rocktm/internal/rbtree"
	"rocktm/internal/sim"
	"rocktm/internal/workload"
)

// Micro-probes time one simulator or library path in isolation, through
// Machine.Run and the packages' public API only. Each returns the host
// cost of one operation for a run of n operations.

// microMachine is a single-strand machine whose quantum is so large that
// the strand never yields, so the strand scheduler stays out of the measurement.
func microMachine(memWords int) *sim.Machine {
	cfg := sim.DefaultConfig(1)
	cfg.MemWords = memWords
	cfg.Quantum = 1 << 40
	cfg.MaxCycles = 1 << 50
	return sim.New(cfg)
}

// timeRun times body inside one Machine.Run, after warm has run.
func timeRun(m *sim.Machine, warm, body func(s *sim.Strand)) time.Duration {
	var d time.Duration
	m.Run(func(s *sim.Strand) {
		warm(s)
		start := time.Now()
		body(s)
		d = time.Since(start)
	})
	return d
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// loadNS is a warm load: TLB hit, L1 hit, no conflicts.
func loadNS(n int) float64 {
	m := microMachine(1 << 16)
	a := m.Mem().AllocLines(sim.WordsPerLine)
	d := timeRun(m, func(s *sim.Strand) { s.Load(a) }, func(s *sim.Strand) {
		for i := 0; i < n; i++ {
			s.Load(a)
		}
	})
	return perOp(d, n)
}

// storeNS is a warm store: translation plus ownership.
func storeNS(n int) float64 {
	m := microMachine(1 << 16)
	a := m.Mem().AllocLines(sim.WordsPerLine)
	d := timeRun(m, func(s *sim.Strand) { s.Store(a, 0) }, func(s *sim.Strand) {
		for i := 0; i < n; i++ {
			s.Store(a, sim.Word(i))
		}
	})
	return perOp(d, n)
}

// txLoadNS is a transactional load over `lines` warm lines, visited in
// turn inside transactions of up to 4096 loads. One line is the same-line
// case the tree kernels hit on every node visit; eight lines make every
// load cross to another line.
func txLoadNS(n, lines int) float64 {
	m := microMachine(1 << 16)
	a := m.Mem().AllocLines(lines * sim.WordsPerLine)
	warm := func(s *sim.Strand) {
		for i := 0; i < lines; i++ {
			s.Load(a + sim.Addr(i*sim.WordsPerLine))
		}
	}
	d := timeRun(m, warm, func(s *sim.Strand) {
		for i := 0; i < n; {
			s.TxBegin()
			ok := true
			for k := 0; ok && k < 4096 && i < n; k++ {
				off := i % sim.WordsPerLine
				if lines > 1 {
					off = (i % lines) * sim.WordsPerLine
				}
				_, ok = s.TxLoad(a + sim.Addr(off))
				i++
			}
			if ok {
				s.TxCommit()
			}
		}
	})
	return perOp(d, n)
}

// txCommitNS is one small read-write transaction on warm lines: begin,
// four loads, four stores, commit.
func txCommitNS(n int) float64 {
	m := microMachine(1 << 16)
	a := m.Mem().AllocLines(8 * sim.WordsPerLine)
	warm := func(s *sim.Strand) {
		for i := 0; i < 8; i++ {
			s.CAS(a+sim.Addr(i*sim.WordsPerLine), 0, 0)
		}
	}
	d := timeRun(m, warm, func(s *sim.Strand) {
		for i := 0; i < n; i++ {
			s.TxBegin()
			ok := true
			for k := 0; k < 4 && ok; k++ {
				_, ok = s.TxLoad(a + sim.Addr(k*sim.WordsPerLine))
			}
			for k := 4; k < 8 && ok; k++ {
				ok = s.TxStore(a+sim.Addr(k*sim.WordsPerLine), sim.Word(i))
			}
			if ok {
				s.TxCommit()
			}
		}
	})
	return perOp(d, n)
}

// wideStrands is the strand count of the scheduler probes: the widest
// point of every figure's thread axis.
const wideStrands = 16

// runStartUS is Machine.Run's own cost per strand for a run whose
// bodies return at once, averaged over n runs.
func runStartUS(n int) float64 {
	cfg := sim.DefaultConfig(wideStrands)
	cfg.MemWords = 1 << 16
	m := sim.New(cfg)
	start := time.Now()
	for i := 0; i < n; i++ {
		m.Run(func(*sim.Strand) {})
	}
	return perOp(time.Since(start), n*wideStrands) / 1e3
}

// handoffNS is the cost of one strand handoff: every Advance overruns the
// quantum, so each one passes the baton to the laggard.
func handoffNS(n int) float64 {
	cfg := sim.DefaultConfig(wideStrands)
	cfg.MemWords = 1 << 16
	m := sim.New(cfg)
	per := n/wideStrands + 1
	step := cfg.Quantum + 1
	start := time.Now()
	m.Run(func(s *sim.Strand) {
		for i := 0; i < per; i++ {
			s.Advance(step)
		}
	})
	return perOp(time.Since(start), per*wideStrands)
}

// lookupNS is one complete one-lock LookupOp on one strand over a
// prepopulated structure.
func lookupNS(n int, build func(m *sim.Machine) func(sys core.System, s *sim.Strand, key uint64), keyRange int) float64 {
	m := microMachine(1 << 22)
	lookup := build(m)
	sys := locktm.NewOneLock(m)
	warm := func(s *sim.Strand) {
		for k := 0; k < keyRange; k++ {
			lookup(sys, s, uint64(k))
		}
	}
	d := timeRun(m, warm, func(s *sim.Strand) {
		for i := 0; i < n; i++ {
			lookup(sys, s, uint64(i%keyRange))
		}
	})
	return perOp(d, n)
}

// rbtreeLookupNS walks the 128-key tree of Figure 2(a).
func rbtreeLookupNS(n int) float64 {
	const keys = 128
	return lookupNS(n, func(m *sim.Machine) func(core.System, *sim.Strand, uint64) {
		t := rbtree.New(m, keys+2+64)
		t.Prepopulate(m.Mem(), workload.PrepopHalfShuffled(keys, 7), 1)
		return func(sys core.System, s *sim.Strand, key uint64) { t.LookupOp(sys, s, key) }
	}, keys)
}

// hashLookupNS probes the 4096-key hash table of the tail experiment.
func hashLookupNS(n int) float64 {
	const keys = 4096
	return lookupNS(n, func(m *sim.Machine) func(core.System, *sim.Strand, uint64) {
		t := hashtable.New(m, 1<<12, keys+2+64)
		t.Prepopulate(m.Mem(), workload.PrepopHalf(keys), 1)
		return func(sys core.System, s *sim.Strand, key uint64) { t.LookupOp(sys, s, key) }
	}, keys)
}

// latencyRecordNS is one obs.LatencyRecorder.Record call.
func latencyRecordNS(n int) float64 {
	rec := obs.NewLatencyRecorder()
	start := time.Now()
	for i := 0; i < n; i++ {
		rec.Record(int64(i & 0xffff))
	}
	return perOp(time.Since(start), n)
}

// microProbe is one micro-probe with the operation count that takes a few
// tens of milliseconds on a current x86 core.
type microProbe struct {
	name string
	n    int
	run  func(n int) float64
}

func microProbes() []microProbe {
	return []microProbe{
		{"sim.load_ns", 2_000_000, loadNS},
		{"sim.store_ns", 1_000_000, storeNS},
		{"sim.txload_sameline_ns", 2_000_000, func(n int) float64 { return txLoadNS(n, 1) }},
		{"sim.txload_crossline_ns", 1_000_000, func(n int) float64 { return txLoadNS(n, 8) }},
		{"sim.txcommit_ns", 200_000, txCommitNS},
		{"sim.run_start_us", 2_000, runStartUS},
		{"sim.handoff_ns", 200_000, handoffNS},
		{"kernel.rbtree_lookup_ns", 100_000, rbtreeLookupNS},
		{"kernel.hash_lookup_ns", 200_000, hashLookupNS},
		{"obs.latency_record_ns", 5_000_000, latencyRecordNS},
	}
}

// microRepeats is how many times each probe runs; the median is reported.
const microRepeats = 5

// runMicro runs every micro-probe at scale × its operation count.
func runMicro(scale float64) map[string]float64 {
	out := map[string]float64{}
	for _, p := range microProbes() {
		n := int(float64(p.n) * scale)
		if n < 1 {
			n = 1
		}
		samples := make([]float64, microRepeats)
		for i := range samples {
			samples[i] = p.run(n)
		}
		out[p.name] = stats.Median(samples)
	}
	return out
}
