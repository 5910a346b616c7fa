package sim

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rocktm/internal/cps"
)

func newTestMachine(strands int) *Machine {
	cfg := DefaultConfig(strands)
	cfg.MemWords = 1 << 18
	cfg.MaxCycles = 1 << 40
	// Keep probabilistic aborts out of unit tests unless a test opts in.
	cfg.CTIAbortProb = 0
	cfg.UCTIAbortProb = 0
	cfg.StoreAfterMissProb = 0
	return New(cfg)
}

func TestBitValuesMatchCPSPackage(t *testing.T) {
	pairs := []struct {
		got  uint32
		want cps.Bits
	}{
		{exogBit, cps.EXOG}, {cohBit, cps.COH}, {tccBit, cps.TCC},
		{instBit, cps.INST}, {precBit, cps.PREC}, {asyncBit, cps.ASYNC},
		{sizBit, cps.SIZ}, {ldBit, cps.LD}, {stBit, cps.ST},
		{ctiBit, cps.CTI}, {fpBit, cps.FP}, {uctiBit, cps.UCTI},
	}
	for _, p := range pairs {
		if p.got != uint32(p.want) {
			t.Errorf("bit mismatch: %x vs %x", p.got, p.want)
		}
	}
}

func TestAllocAndPoke(t *testing.T) {
	m := newTestMachine(1)
	a := m.Mem().Alloc(100, WordsPerLine)
	if a == 0 {
		t.Fatal("Alloc returned null address")
	}
	if a%WordsPerLine != 0 {
		t.Fatalf("Alloc not line aligned: %d", a)
	}
	m.Mem().Poke(a, 42)
	if got := m.Mem().Peek(a); got != 42 {
		t.Fatalf("Peek = %d, want 42", got)
	}
	b := m.Mem().Alloc(10, 0)
	if b < a+100 {
		t.Fatalf("overlapping allocations: %d after %d+100", b, a)
	}
}

// TestRecycleScrubsMappedPages: Alloc maps whole pages, so simulated code
// reaches past the allocator cursor to the end of the last mapped page.
// Recycle must scrub all of that, or the next machine that draws the
// page's frame from the pool sees a stray store's value and a stray load's
// presence bit — a bit for strand 7, which a 2-strand machine's next store
// to the line indexes out of range.
func TestRecycleScrubsMappedPages(t *testing.T) {
	const (
		storeAt = Addr(PageWords - 2*WordsPerLine) // page 0, past the cursor
		loadAt  = Addr(PageWords - WordsPerLine)
	)
	// sync.Pool may drop a Put (under -race it does so at random), and a
	// dropped frame hides the leak, so recycle several times.
	for i := 0; i < 4; i++ {
		m := newTestMachine(8)
		m.Mem().AllocLines(WordsPerLine)
		m.Run(func(s *Strand) {
			switch s.ID() {
			case 0:
				s.Store(storeAt, 0xdead)
			case 7:
				s.Load(loadAt)
			}
		})
		m.Recycle()

		m2 := newTestMachine(2)
		m2.Mem().AllocLines(WordsPerLine)
		if got := m2.Mem().Peek(storeAt); got != 0 {
			t.Fatalf("recycle %d: fresh machine reads %#x at %d, want 0", i, got, storeAt)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("recycle %d: store to a recycled line panicked: %v", i, r)
				}
			}()
			m2.Run(func(s *Strand) {
				if s.ID() == 0 {
					s.Store(loadAt, 1)
				}
			})
		}()
		m2.Recycle()
	}
}

// TestRecycleTwiceIsNoOp: a second Recycle must not hand the machine's
// frames or its L2 to the pools again, or two later machines would share
// them. The recycled machine keeps no frame either: its memory reads zero
// while later machines write the frames it gave back.
func TestRecycleTwiceIsNoOp(t *testing.T) {
	m := newTestMachine(2)
	a := m.Mem().Alloc(4*PageWords, PageWords)
	m.Run(func(s *Strand) {
		for p := 0; p < 4; p++ {
			s.Store(a+Addr(p*PageWords+s.ID()), 1)
		}
	})
	m.Recycle()
	m.Recycle()

	m1, m2 := newTestMachine(2), newTestMachine(2)
	defer m1.Recycle()
	defer m2.Recycle()
	if m1.l2 == m2.l2 {
		t.Fatal("two machines share one L2")
	}
	owner := map[*frame]*Machine{}
	for _, mm := range []*Machine{m1, m2} {
		b := mm.Mem().Alloc(4*PageWords, PageWords)
		for p := 0; p < 4; p++ {
			mm.Mem().Poke(b+Addr(p*PageWords), 1)
		}
		for _, f := range mm.mem.frames {
			if f == nil {
				continue
			}
			if owner[f] != nil {
				t.Fatal("two pages share one frame")
			}
			owner[f] = mm
		}
	}
	for p := 0; p < 4; p++ {
		if got := m.Mem().Peek(a + Addr(p*PageWords)); got != 0 {
			t.Fatalf("recycled machine reads %#x on page %d, want 0", got, PageOf(a)+int32(p))
		}
	}
}

// TestRunAfterRecyclePanics: a recycled machine's frames and L2 belong to
// the pools, so running it again must fail loudly and say why.
func TestRunAfterRecyclePanics(t *testing.T) {
	m := newTestMachine(1)
	m.Recycle()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "Recycle") {
			t.Fatalf("Run on a recycled machine: recovered %v, want a panic naming Recycle", r)
		}
	}()
	m.Run(func(*Strand) {})
}

// TestRecycleConcurrent builds, runs and recycles machines on four
// goroutines at once, as the runner's workers do through the shared
// pools. Every frame a machine backs must be zero, words and directory
// alike, and every L2 it gets must be empty, so each strand's first load
// of a line reads zero and misses the L2.
func TestRecycleConcurrent(t *testing.T) {
	const workers, machines, pages = 4, 20, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < machines; i++ {
				m := newTestMachine(2)
				if len(m.l2.slots) != 0 {
					t.Errorf("fresh L2 stores %d slots", len(m.l2.slots))
				}
				for set, at := range m.l2.setOf {
					if at != 0 {
						t.Errorf("fresh L2 has set %d stored", set)
						break
					}
				}
				a := m.Mem().Alloc(pages*PageWords, PageWords)
				for p := 0; p < pages; p++ {
					at := a + Addr(p*PageWords)
					m.Mem().Poke(at, 0)
					if *m.mem.frames[PageOf(at)] != (frame{}) {
						t.Errorf("the frame backing page %d is not zero", PageOf(at))
					}
				}
				m.Run(func(s *Strand) {
					// Each strand loads its own half of every page's lines,
					// then dirties them and the directory.
					for p := 0; p < pages; p++ {
						for l := s.ID(); l < linesPerPage; l += 2 {
							at := a + Addr(p*PageWords+l*WordsPerLine)
							if got := s.Load(at); got != 0 {
								t.Errorf("fresh memory reads %#x at %d", got, at)
							}
						}
					}
					if got := s.Stats().L2Misses; got != pages*linesPerPage/2 {
						t.Errorf("strand %d: %d L2 misses on %d first loads", s.ID(), got, pages*linesPerPage/2)
					}
					for p := 0; p < pages; p++ {
						s.TxBegin()
						for l := s.ID(); l < linesPerPage && s.TxActive(); l += 16 {
							s.TxStore(a+Addr(p*PageWords+l*WordsPerLine), 0xdead)
						}
						if s.TxActive() {
							s.TxCommit()
						}
						s.Store(a+Addr(p*PageWords+s.ID()), 0xbeef)
					}
				})
				m.Recycle()
			}
		}()
	}
	wg.Wait()
}

func TestLoadStoreCAS(t *testing.T) {
	m := newTestMachine(1)
	a := m.Mem().Alloc(8, WordsPerLine)
	m.Run(func(s *Strand) {
		s.Store(a, 7)
		if got := s.Load(a); got != 7 {
			t.Errorf("Load = %d, want 7", got)
		}
		if old, ok := s.CAS(a, 7, 9); !ok || old != 7 {
			t.Errorf("CAS(7->9) = (%d,%v), want (7,true)", old, ok)
		}
		if old, ok := s.CAS(a, 7, 11); ok || old != 9 {
			t.Errorf("CAS(7->11) = (%d,%v), want (9,false)", old, ok)
		}
		if got := s.Add(a, 3); got != 12 {
			t.Errorf("Add = %d, want 12", got)
		}
	})
	if got := m.Mem().Peek(a); got != 12 {
		t.Fatalf("final value = %d, want 12", got)
	}
}

func TestVirtualTimeInterleaving(t *testing.T) {
	// Two strands increment a shared counter with CAS retry loops; with
	// virtual-time scheduling both must make progress and the total must
	// be exact.
	m := newTestMachine(2)
	a := m.Mem().Alloc(8, WordsPerLine)
	const per = 1000
	m.Run(func(s *Strand) {
		for i := 0; i < per; i++ {
			for {
				old := s.Load(a)
				if _, ok := s.CAS(a, old, old+1); ok {
					break
				}
			}
		}
	})
	if got := m.Mem().Peek(a); got != 2*per {
		t.Fatalf("counter = %d, want %d", got, 2*per)
	}
	// Clocks should be within a few quanta of each other: both ran.
	c0, c1 := m.Strand(0).Clock(), m.Strand(1).Clock()
	if c0 == 0 || c1 == 0 {
		t.Fatalf("a strand did not run: clocks %d, %d", c0, c1)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, Word) {
		m := newTestMachine(4)
		a := m.Mem().Alloc(64, WordsPerLine)
		m.Run(func(s *Strand) {
			for i := 0; i < 500; i++ {
				idx := s.RandIntn(8)
				s.Store(a+Addr(idx), s.Rand())
				s.Load(a + Addr(s.RandIntn(8)))
			}
		})
		return m.MaxClock(), m.Mem().Peek(a)
	}
	c1, w1 := run()
	c2, w2 := run()
	if c1 != c2 || w1 != w2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, w1, c2, w2)
	}
}

func TestTxnCommitAppliesStores(t *testing.T) {
	m := newTestMachine(1)
	a := m.Mem().Alloc(16, WordsPerLine)
	m.Run(func(s *Strand) {
		s.Store(a, 1) // warm TLB/write permission
		s.TxBegin()
		if !s.TxStore(a, 5) {
			t.Fatalf("TxStore aborted: %v", s.CPS())
		}
		if w, ok := s.TxLoad(a); !ok || w != 5 {
			t.Fatalf("read-own-write = (%d,%v), want (5,true)", w, ok)
		}
		if m.Mem().Peek(a) != 1 {
			t.Fatal("store leaked before commit")
		}
		if !s.TxCommit() {
			t.Fatalf("commit failed: %v", s.CPS())
		}
	})
	if got := m.Mem().Peek(a); got != 5 {
		t.Fatalf("after commit = %d, want 5", got)
	}
}

func TestTxnAbortDiscardsStores(t *testing.T) {
	m := newTestMachine(1)
	a := m.Mem().Alloc(16, WordsPerLine)
	m.Run(func(s *Strand) {
		s.Store(a, 1)
		s.TxBegin()
		if !s.TxStore(a, 99) {
			t.Fatalf("TxStore aborted: %v", s.CPS())
		}
		s.TxAbortTrap()
		if s.TxActive() {
			t.Fatal("still active after abort")
		}
		if got := s.CPS(); got != cps.TCC {
			t.Fatalf("CPS = %v, want TCC", got)
		}
	})
	if got := m.Mem().Peek(a); got != 1 {
		t.Fatalf("aborted store leaked: %d", got)
	}
}

func TestRequesterWinsConflict(t *testing.T) {
	// Strand 0 starts a transaction and reads X, then spins; strand 1
	// stores to X; strand 0's next transactional operation must observe a
	// COH abort.
	m := newTestMachine(2)
	x := m.Mem().Alloc(8, WordsPerLine)
	y := m.Mem().Alloc(8, WordsPerLine)
	m.Run(func(s *Strand) {
		if s.ID() == 0 {
			s.Store(y, 0) // warm
			s.TxBegin()
			if _, ok := s.TxLoad(x); !ok {
				t.Errorf("initial TxLoad failed: %v", s.CPS())
				return
			}
			// Let strand 1 run far ahead.
			s.Advance(10000)
			if _, ok := s.TxLoad(x); ok {
				if s.TxCommit() {
					t.Error("transaction survived a conflicting store")
				}
				return
			}
			if got := s.CPS(); !got.Has(cps.COH) {
				t.Errorf("CPS = %v, want COH", got)
			}
		} else {
			s.Advance(2000) // let strand 0 mark x first
			s.Store(x, 123)
		}
	})
}

func TestStoreQueueOverflow(t *testing.T) {
	m := newTestMachine(1)
	a := m.Mem().Alloc(64*WordsPerLine, WordsPerLine)
	m.Run(func(s *Strand) {
		// Warm the TLB so ST-from-TLB-miss does not hit first.
		for p := PageOf(a); p <= PageOf(a+64*WordsPerLine-1); p++ {
			s.CAS(Addr(p)<<PageShift, 0, 0)
		}
		// 32 stores to 32 distinct lines succeed (two banks of 16).
		s.TxBegin()
		okAll := true
		for i := 0; i < 32; i++ {
			if !s.TxStore(a+Addr(i*WordsPerLine), 1) {
				okAll = false
				break
			}
		}
		if !okAll {
			t.Fatalf("32 stores aborted early: %v", s.CPS())
		}
		if !s.TxCommit() {
			t.Fatalf("32-store txn failed to commit: %v", s.CPS())
		}
		// The 33rd distinct line overflows a bank: ST|SIZ.
		s.TxBegin()
		for i := 0; i < 33; i++ {
			if !s.TxStore(a+Addr(i*WordsPerLine), 1) {
				if got := s.CPS(); got != cps.ST|cps.SIZ {
					t.Fatalf("overflow CPS = %v, want ST|SIZ", got)
				}
				return
			}
		}
		t.Fatal("33 stores did not overflow")
	})
}

func TestMicroTLBMissOnStore(t *testing.T) {
	m := newTestMachine(1)
	a := m.Mem().Alloc(PageWords*2, PageWords)
	m.Run(func(s *Strand) {
		m.Mem().Remap(a, PageWords*2) // drop mappings
		s.TxBegin()
		if s.TxStore(a, 1) {
			t.Fatal("store to unmapped page succeeded")
		}
		if got := s.CPS(); got != cps.ST {
			t.Fatalf("CPS = %v, want ST", got)
		}
		// Unmapped at every level: retry keeps failing.
		s.TxBegin()
		if s.TxStore(a, 1) {
			t.Fatal("retry to unmapped page succeeded")
		}
		// Dummy CAS warmup establishes mapping and write permission...
		s.CAS(a, 0, 0)
		// ...after which the transactional store succeeds.
		s.TxBegin()
		if !s.TxStore(a, 7) {
			t.Fatalf("post-warmup store failed: %v", s.CPS())
		}
		if !s.TxCommit() {
			t.Fatalf("post-warmup commit failed: %v", s.CPS())
		}
	})
	if got := m.Mem().Peek(a); got != 7 {
		t.Fatalf("value = %d, want 7", got)
	}
}

func TestTxnLoadUnmappedPage(t *testing.T) {
	m := newTestMachine(1)
	a := m.Mem().Alloc(PageWords, PageWords)
	m.Run(func(s *Strand) {
		m.Mem().Remap(a, PageWords)
		s.TxBegin()
		if _, ok := s.TxLoad(a); ok {
			t.Fatal("load from unmapped page succeeded")
		}
		if got := s.CPS(); got != cps.LD|cps.PREC {
			t.Fatalf("CPS = %v, want LD|PREC", got)
		}
	})
}

func TestCacheSetTestFiveWays(t *testing.T) {
	// Five loads mapping to the same 4-way L1 set can never all stay
	// marked: CPS=LD (the Section 3 "cache set test").
	m := newTestMachine(1)
	stride := L1Sets * WordsPerLine
	a := m.Mem().Alloc(stride*6, stride)
	m.Run(func(s *Strand) {
		s.TxBegin()
		for i := 0; i < 5; i++ {
			if _, ok := s.TxLoad(a + Addr(i*stride)); !ok {
				if got := s.CPS(); !got.Has(cps.LD) {
					t.Fatalf("CPS = %v, want LD set", got)
				}
				return
			}
		}
		t.Fatal("five same-set loads did not abort")
	})
}

func TestEvictionTest(t *testing.T) {
	// Long line-stride load sequences cannot fit in L1: LD or SIZ.
	m := newTestMachine(1)
	lines := L1Sets*L1Ways + 64
	a := m.Mem().Alloc(lines*WordsPerLine, WordsPerLine)
	m.Run(func(s *Strand) {
		s.TxBegin()
		for i := 0; i < lines; i++ {
			if _, ok := s.TxLoad(a + Addr(i*WordsPerLine)); !ok {
				if got := s.CPS(); !got.Any(cps.LD | cps.SIZ) {
					t.Fatalf("CPS = %v, want LD or SIZ", got)
				}
				return
			}
		}
		t.Fatal("oversized read set did not abort")
	})
}

func TestSaveRestoreDivTrap(t *testing.T) {
	m := newTestMachine(1)
	m.Run(func(s *Strand) {
		s.TxBegin()
		s.TxSaveRestore()
		if got := s.CPS(); got != cps.INST {
			t.Errorf("save/restore CPS = %v, want INST", got)
		}
		s.TxBegin()
		s.TxDiv()
		if got := s.CPS(); got != cps.FP {
			t.Errorf("div CPS = %v, want FP", got)
		}
		s.TxBegin()
		if !s.TxTrap(false) {
			t.Error("untaken trap aborted")
		}
		if !s.TxCommit() {
			t.Errorf("commit after untaken trap failed: %v", s.CPS())
		}
		s.TxBegin()
		s.TxTrap(true)
		if got := s.CPS(); got != cps.TCC {
			t.Errorf("taken trap CPS = %v, want TCC", got)
		}
	})
}

func TestSEModeStoreQueue(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Mode = SE
	cfg.MemWords = 1 << 18
	cfg.StoreAfterMissProb = 0
	m := New(cfg)
	a := m.Mem().Alloc(64*WordsPerLine, WordsPerLine)
	m.Run(func(s *Strand) {
		for p := PageOf(a); p <= PageOf(a+64*WordsPerLine-1); p++ {
			s.CAS(Addr(p)<<PageShift, 0, 0)
		}
		s.TxBegin()
		for i := 0; i < 17; i++ {
			if !s.TxStore(a+Addr(i*WordsPerLine), 1) {
				if got := s.CPS(); got != cps.ST|cps.SIZ {
					t.Fatalf("SE overflow CPS = %v, want ST|SIZ", got)
				}
				return
			}
		}
		t.Fatal("17 stores fit a 16-entry SE store queue")
	})
}

// runPanic runs m.Run(body) and returns the value it panicked with (nil if
// it returned normally).
func runPanic(m *Machine, body func(*Strand)) (r any) {
	defer func() { r = recover() }()
	m.Run(body)
	return nil
}

// A body that calls Run on its own machine panics instead of corrupting
// the scheduler state of the run it is part of.
func TestRunRejectsReentry(t *testing.T) {
	m := newTestMachine(1)
	var inner any
	m.Run(func(s *Strand) {
		inner = runPanic(m, func(*Strand) {})
	})
	if inner != "sim: Run re-entered" {
		t.Fatalf("nested Run panicked with %v, want \"sim: Run re-entered\"", inner)
	}
}

// A body that trips the MaxCycles livelock guard makes Run panic on the
// caller's goroutine rather than deadlock, and every other strand's
// coroutine — parked mid-body or never started — is released, so a failed
// run leaks no goroutines. The machine is usable for another Run.
func TestRunLivelockPanicsWithoutLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig(8)
	cfg.MemWords = 1 << 16
	cfg.MaxCycles = 100_000
	m := New(cfg)
	r := runPanic(m, func(s *Strand) {
		for {
			s.Advance(10) // spins forever in virtual time
		}
	})
	msg, _ := r.(string)
	if !strings.Contains(msg, "exceeded MaxCycles") {
		t.Fatalf("Run panicked with %v, want the MaxCycles guard", r)
	}
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines leaked by the failed run", after-before)
	}
	if r := runPanic(m, func(*Strand) {}); r != nil {
		t.Fatalf("Run after a failed run panicked: %v", r)
	}
}

// Each strand keeps one coroutine from its first Run until Recycle: a
// later Run hands the parked coroutine its body and allocates nothing.
func TestRunReusesStrandCoroutines(t *testing.T) {
	m := newTestMachine(4)
	body := func(s *Strand) {
		for i := 0; i < 8; i++ {
			s.Advance(100) // past the quantum: every call hands the baton on
		}
	}
	m.Run(body)
	if allocs := testing.AllocsPerRun(100, func() { m.Run(body) }); allocs != 0 {
		t.Fatalf("a Run on a machine that has run before allocates %v times, want 0", allocs)
	}
}

// Recycle stops every strand coroutine and returns once they have exited,
// so the goroutine count is back at its baseline without a GC.
func TestRecycleStopsCoroutines(t *testing.T) {
	m := newTestMachine(4)
	before := runtime.NumGoroutine()
	m.Run(func(s *Strand) { s.Advance(1000) })
	for _, s := range m.strands {
		if s.resume == nil {
			t.Fatalf("strand %d has no coroutine after a Run", s.id)
		}
	}
	m.Recycle()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d strand coroutines still running after Recycle", after-before)
	}
}

// A machine that is dropped without Recycle releases its coroutines once
// it is collected: a parked coroutine holds neither its strand nor its
// machine, and a finalizer stops it.
func TestUnrecycledMachineReleasesCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		m := newTestMachine(4)
		for r := 0; r < 2; r++ {
			m.Run(func(s *Strand) { s.Advance(1000) })
		}
	}
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d strand coroutines of unreachable machines still running", after-before)
	}
}

// A body that calls runtime.Goexit ends the goroutine that called Run, as
// t.Fatal inside a body does; on the way out Run stops every coroutine,
// and the machine's next Run starts fresh ones.
func TestRunGoexitStopsCoroutines(t *testing.T) {
	m := newTestMachine(4)
	before := runtime.NumGoroutine()
	m.Run(func(s *Strand) { s.Advance(1000) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(func(s *Strand) {
			s.Advance(1000)
			if s.ID() == 2 {
				runtime.Goexit()
			}
		})
		t.Error("Run returned after a body called Goexit")
	}()
	<-done
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines still running after a body's Goexit", after-before)
	}
	ran := 0
	m.Run(func(*Strand) { ran++ })
	if ran != 4 {
		t.Fatalf("Run after a Goexit ran %d bodies, want 4", ran)
	}
}
