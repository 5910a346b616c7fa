package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// Micro-benchmarks for the simulator's per-access layer: TLB probes and
// fills, scheduler handoffs, plain loads and stores, and the transactional
// paths. The scaling benchmarks (TLB entries 64→512, strands 2→16) show
// that the indexed structures are O(1)/O(log n): ns/op stays flat where a
// linear scan would grow with size.
//
// CI runs the whole file once per change (-benchtime=1x smoke) so the
// suite cannot bit-rot. To measure a change, alternate the parent's and
// the change's test binaries (docs/PERFORMANCE.md).

// ---- TLB ----

// BenchmarkTLBLookupHit measures a hit probing round-robin over every
// resident page: the linear-scan TLB pays O(entries/2) per probe, an
// indexed TLB pays O(1).
func BenchmarkTLBLookupHit(b *testing.B) {
	for _, entries := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			tb := newTLB(entries)
			for p := 0; p < entries; p++ {
				tb.fill(int32(p), 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !tb.lookup(int32(i%entries), 0) {
					b.Fatal("resident page missed")
				}
			}
		})
	}
}

// BenchmarkTLBFillChurn measures steady-state capacity misses: every
// probe misses and every fill must choose the exact-LRU victim.
func BenchmarkTLBFillChurn(b *testing.B) {
	for _, entries := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			tb := newTLB(entries)
			span := int32(2 * entries) // twice capacity: all misses
			for p := int32(0); p < span; p++ {
				tb.fill(p, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := int32(i) % span
				if !tb.lookup(p, 0) {
					tb.fill(p, 0)
				}
			}
		})
	}
}

// ---- Scheduler ----

// BenchmarkSchedulerHandoff measures one baton handoff (park + pick next
// + wake) with every advance overrunning the quantum, as strand counts
// scale. The linear scheduler pays two O(strands) scans per handoff.
func BenchmarkSchedulerHandoff(b *testing.B) {
	for _, strands := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("strands=%d", strands), func(b *testing.B) {
			cfg := DefaultConfig(strands)
			cfg.MemWords = 1 << 16
			m := New(cfg)
			per := b.N/strands + 1
			step := cfg.Quantum + 1 // every advance crosses the yield threshold
			b.ReportAllocs()
			b.ResetTimer()
			m.Run(func(s *Strand) {
				for i := 0; i < per; i++ {
					s.Advance(step)
				}
			})
		})
	}
}

// ---- Construction ----

// newStoredMachine builds a machine and runs it once: every strand stores
// to four pages.
func newStoredMachine(cfg Config) *Machine {
	m := New(cfg)
	a := m.Mem().Alloc(4*PageWords, PageWords)
	m.Run(func(s *Strand) {
		for p := 0; p < 4; p++ {
			s.Store(a+Addr(p*PageWords+s.ID()*WordsPerLine), 1)
		}
	})
	return m
}

// machineNewCycle is one steady-state machine lifetime: New, a short run
// in which every strand stores to four pages, and Recycle.
func machineNewCycle(cfg Config) {
	newStoredMachine(cfg).Recycle()
}

// benchMachineNew times machineNewCycle with the frame and L2 pools warm.
func benchMachineNew(b *testing.B, cfg Config) {
	machineNewCycle(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machineNewCycle(cfg)
	}
}

// BenchmarkMachineNew measures construction: per-strand caches, TLBs and
// coroutines, the page tables, and a pooled L2 whose set index is cleared
// and whose touched sets are stored again. Its bytes/op follow the strands
// and the pages and L2 sets a run touches, not the configured memory or
// L2 (TestMachineNewBytesBudget).
func BenchmarkMachineNew(b *testing.B) {
	for _, strands := range []int{1, 16} {
		b.Run(fmt.Sprintf("strands=%d", strands), func(b *testing.B) {
			benchMachineNew(b, DefaultConfig(strands))
		})
	}
}

// machineNewBytesBudget caps BenchmarkMachineNew's bytes/op at
// DefaultConfig(16). A machine that allocated its own dense L2 (512 KB),
// or sized each strand's TLB page indexes to the configured memory (48 KB
// a strand at 32 MB), would exceed it.
const machineNewBytesBudget = 1 << 20

// TestMachineNewBytesBudget pins construction's allocation volume. Bytes,
// unlike wall-clock, do not drift with the host.
func TestMachineNewBytesBudget(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) { benchMachineNew(b, DefaultConfig(16)) })
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if got := res.AllocedBytesPerOp(); got > machineNewBytesBudget {
		t.Errorf("New+Run+Recycle at DefaultConfig(16) allocates %d bytes/op, budget is %d", got, machineNewBytesBudget)
	}
}

// machineRetainedBudget caps the heap a live DefaultConfig(4) machine,
// fleet's shard shape, retains after storing to four pages. It reads
// ~234 KB: per-strand caches, TLBs and coroutines, the page tables, and
// the L2's set index and touched sets. A dense L2 alone was 512 KB.
const machineRetainedBudget = 320 << 10

// TestMachineRetainedBytes pins what a live machine holds, which is what
// each shard of a fleet cell keeps resident while the cell runs. The
// pools are emptied first, so the machine allocates all it holds.
func TestMachineRetainedBytes(t *testing.T) {
	runtime.GC()
	runtime.GC() // the second cycle drops the pools' victim caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := newStoredMachine(DefaultConfig(4))
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	m.Recycle()
	if retained > machineRetainedBudget {
		t.Errorf("a live DefaultConfig(4) machine retains %d bytes, budget is %d", retained, machineRetainedBudget)
	}
}

// ---- Plain loads and stores ----

// benchMachine1 builds a single-strand machine with a small memory.
func benchMachine1() *Machine {
	cfg := DefaultConfig(1)
	cfg.MemWords = 1 << 20
	return New(cfg)
}

// BenchmarkLoadL1Hit is the simplest possible hot path: a warm load
// (TLB hit, L1 hit, no conflicts).
func BenchmarkLoadL1Hit(b *testing.B) {
	m := benchMachine1()
	a := m.Mem().AllocLines(WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		s.Load(a) // warm
		for i := 0; i < b.N; i++ {
			s.Load(a)
		}
	})
}

// BenchmarkLoadTLBChurn strides loads over more pages than the main DTLB
// holds: every access walks and fills, stressing translation end to end.
func BenchmarkLoadTLBChurn(b *testing.B) {
	m := benchMachine1()
	const pages = 600 // > MainDTLB (512)
	arena := m.Mem().Alloc(pages*PageWords, PageWords)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		for i := 0; i < b.N; i++ {
			s.Load(arena + Addr((i%pages)*PageWords))
		}
	})
}

// BenchmarkStoreL1Hit is the warm store path (translation + ownership).
func BenchmarkStoreL1Hit(b *testing.B) {
	m := benchMachine1()
	a := m.Mem().AllocLines(WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		s.Store(a, 0) // warm
		for i := 0; i < b.N; i++ {
			s.Store(a, Word(i))
		}
	})
}

// ---- Transactions ----

// BenchmarkTxCommit measures a small read-write transaction (4 loads,
// 4 stores, commit) on warm lines.
func BenchmarkTxCommit(b *testing.B) {
	m := benchMachine1()
	a := m.Mem().AllocLines(8 * WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		for i := 0; i < 8; i++ { // warm TLB + caches + write permission
			s.CAS(a+Addr(i*WordsPerLine), 0, 0)
		}
		committed := 0
		for i := 0; i < b.N; i++ {
			s.TxBegin()
			ok := true
			for k := 0; k < 4 && ok; k++ {
				_, ok = s.TxLoad(a + Addr(k*WordsPerLine))
			}
			for k := 4; k < 8 && ok; k++ {
				ok = s.TxStore(a+Addr(k*WordsPerLine), Word(i))
			}
			if ok && s.TxCommit() {
				committed++
			}
		}
		if committed == 0 && b.N > 8 {
			b.Error("no transaction ever committed")
		}
	})
}

// BenchmarkTxAbort measures the abort path (begin, one load, explicit
// abort trap, CPS read).
func BenchmarkTxAbort(b *testing.B) {
	m := benchMachine1()
	a := m.Mem().AllocLines(WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		s.Load(a)
		for i := 0; i < b.N; i++ {
			s.TxBegin()
			if _, ok := s.TxLoad(a); ok {
				s.TxAbortTrap()
			}
			_ = s.CPS()
		}
	})
}

// BenchmarkTxLoadRun measures runs of up to 4096 transactional loads per
// transaction, cycling over a warm working set of one line (a kernel's
// run of field loads on one node) or eight lines (a walk across nodes).
// Both pay the full per-access path: translation probe, L1 tag walk,
// coherence-directory read and mark.
func BenchmarkTxLoadRun(b *testing.B) {
	for _, lines := range []int{1, 8} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			m := benchMachine1()
			a := m.Mem().AllocLines(lines * WordsPerLine)
			b.ReportAllocs()
			b.ResetTimer()
			m.Run(func(s *Strand) {
				for i := 0; i < lines; i++ { // warm translation + L1
					s.Load(a + Addr(i*WordsPerLine))
				}
				i := 0
				for i < b.N {
					s.TxBegin()
					ok := true
					for k := 0; ok && k < 4096 && i < b.N; k++ {
						_, ok = s.TxLoad(a + Addr((i%lines)*WordsPerLine))
						i++
					}
					if ok {
						s.TxCommit()
					}
				}
			})
		})
	}
}

// BenchmarkTxLoadForwarding fills the store queue with stores to
// distinct lines, then loads each stored address back: every load must
// forward from the store queue. The linear-scan queue pays O(entries)
// per forwarded load.
func BenchmarkTxLoadForwarding(b *testing.B) {
	m := benchMachine1()
	const lines = 24 // fits two SSE banks of 16
	a := m.Mem().AllocLines(lines * WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(s *Strand) {
		for i := 0; i < lines; i++ {
			s.CAS(a+Addr(i*WordsPerLine), 0, 0)
		}
		i := 0
		for i < b.N {
			s.TxBegin()
			ok := true
			for k := 0; k < lines && ok; k++ {
				ok = s.TxStore(a+Addr(k*WordsPerLine), Word(k))
			}
			for ok && i < b.N {
				_, ok = s.TxLoad(a + Addr((i%lines)*WordsPerLine))
				i++
			}
			if ok {
				s.TxCommit()
			}
		}
	})
}
