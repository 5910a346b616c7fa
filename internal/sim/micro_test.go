package sim

import (
	"testing"
	"testing/quick"
)

// ---- branch predictor ----

func TestPredictorLearnsStableBranches(t *testing.T) {
	bp := newBranchPredictor()
	misses := 0
	for i := 0; i < 200; i++ {
		if bp.predict(42, true) {
			misses++
		}
	}
	if misses > 20 { // gshare needs history warmup: ~12 distinct indexes before saturation
		t.Errorf("always-taken branch mispredicted %d/200 times", misses)
	}
	// A branch alternating every iteration with history-based indexing
	// should also be learned eventually.
	bp2 := newBranchPredictor()
	late := 0
	for i := 0; i < 400; i++ {
		mis := bp2.predict(7, i%2 == 0)
		if i >= 200 && mis {
			late++
		}
	}
	if late > 20 {
		t.Errorf("alternating branch still missing %d/200 after warmup", late)
	}
}

// ---- TLB ----

func TestTLBGenerationInvalidation(t *testing.T) {
	tb := newTLB(4)
	tb.fill(10, 0)
	if !tb.lookup(10, 0) {
		t.Fatal("fresh entry missing")
	}
	if tb.lookup(10, 1) {
		t.Fatal("stale generation hit")
	}
	// The stale probe must also have dropped the entry.
	if tb.lookup(10, 0) {
		t.Fatal("stale entry lingered")
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tb := newTLB(2)
	tb.fill(1, 0)
	tb.fill(2, 0)
	tb.lookup(1, 0) // make page 1 most recent
	tb.fill(3, 0)   // must evict page 2
	if !tb.lookup(1, 0) {
		t.Error("recently used page evicted")
	}
	if tb.lookup(2, 0) {
		t.Error("LRU page survived")
	}
	if !tb.lookup(3, 0) {
		t.Error("newly filled page missing")
	}
	tb.flush()
	if tb.lookup(1, 0) || tb.lookup(3, 0) {
		t.Error("flush left entries behind")
	}
}

// ---- L1 cache ----

// l1Access touches line and fills it on a miss, as Strand.fill does, with
// the marks of bit read from frames. It reports whether the access hit,
// the line it displaced and whether that line was marked.
func l1Access(c *l1Cache, frames []*frame, bit uint64, line int32) (hit bool, evicted int32, evictedMark bool) {
	if c.touch(line) {
		return true, -1, false
	}
	evicted, evictedMark = c.fillVictim(line, frames, bit)
	return false, evicted, evictedMark
}

func TestL1HitsAndLRU(t *testing.T) {
	c := newL1(2, 2) // 2 sets × 2 ways
	if hit, _, _ := l1Access(c, nil, 0, 0); hit {
		t.Fatal("cold access hit")
	}
	if hit, _, _ := l1Access(c, nil, 0, 0); !hit {
		t.Fatal("warm access missed")
	}
	// Lines 0, 2, 4 all map to set 0; with 2 ways the LRU (0) goes first.
	l1Access(c, nil, 0, 2)
	l1Access(c, nil, 0, 0) // touch 0 so 2 is LRU
	if _, evicted, _ := l1Access(c, nil, 0, 4); evicted != 2 {
		t.Fatalf("evicted line %d, want 2", evicted)
	}
}

// TestL1MarkedLinesPinned checks that victim choice reads each way's mark
// from the line's directory entry: a way marked by this strand is kept
// while an unmarked way remains, another strand's mark pins nothing, and
// a set full of marked ways reports a marked eviction. Outside a
// transaction the strand passes bit 0, and no mark is read.
func TestL1MarkedLinesPinned(t *testing.T) {
	c := newL1(1, 2)               // one set, two ways
	frames := []*frame{new(frame)} // lines 0..127 lie on page 0
	const bit, other = 1 << 3, 1 << 5
	l1Access(c, frames, bit, 0)
	frames[0].dir(0).marked |= bit
	l1Access(c, frames, bit, 1)
	frames[0].dir(1).marked |= other
	// Line 2 must evict line 1, unmarked for this strand, not the LRU but
	// marked line 0.
	if _, evicted, wasMarked := l1Access(c, frames, bit, 2); evicted != 1 || wasMarked {
		t.Fatalf("evicted (%d,%v), want (1,false)", evicted, wasMarked)
	}
	// Both resident lines, 0 and 2, are now marked: the next fill has no
	// unmarked victim and must report a marked eviction of the LRU line.
	frames[0].dir(2).marked |= bit
	if _, evicted, wasMarked := l1Access(c, frames, bit, 3); evicted != 0 || !wasMarked {
		t.Fatalf("full-of-marked set evicted (%d,%v), want (0,true)", evicted, wasMarked)
	}
	// With bit 0 the marked LRU line 2 goes like any other.
	if _, evicted, wasMarked := l1Access(c, frames, 0, 4); evicted != 2 || wasMarked {
		t.Fatalf("outside a transaction evicted (%d,%v), want (2,false)", evicted, wasMarked)
	}
}

// TestL1InvalidateAndMarkClear checks that clearing a line's directory
// mark, as commit and abort do, unpins it for victim choice, and that
// invalidate drops a line and frees its way for the next fill.
func TestL1InvalidateAndMarkClear(t *testing.T) {
	c := newL1(1, 2)
	frames := []*frame{new(frame)}
	const bit = 1
	l1Access(c, frames, bit, 0)
	l1Access(c, frames, bit, 1)
	frames[0].dir(0).marked |= bit
	if _, evicted, _ := l1Access(c, frames, bit, 2); evicted != 1 {
		t.Fatalf("evicted line %d past the marked line 0, want 1", evicted)
	}
	frames[0].dir(0).marked &^= bit
	if _, evicted, wasMarked := l1Access(c, frames, bit, 3); evicted != 0 || wasMarked {
		t.Fatalf("after the mark cleared evicted (%d,%v), want (0,false)", evicted, wasMarked)
	}
	if !c.invalidate(2) {
		t.Fatal("invalidate missed a resident line")
	}
	if c.lookup(2) != -1 || c.invalidate(2) {
		t.Fatal("line still present after invalidate")
	}
	if _, evicted, _ := l1Access(c, frames, bit, 4); evicted != -1 || c.lookup(3) == -1 {
		t.Fatalf("fill after invalidate evicted line %d, want the freed way", evicted)
	}
}

// ---- L2 back-invalidation dooms marked L1 lines ----

func TestL2BackInvalidationDooms(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MemWords = 1 << 22
	cfg.L2Sets, cfg.L2Ways = 16, 2 // tiny L2: easy to displace
	cfg.MaxCycles = 1 << 42
	cfg.StoreAfterMissProb = 0
	cfg.CTIAbortProb = 0
	cfg.UCTIAbortProb = 0
	m := New(cfg)
	a := m.Mem().AllocLines(WordsPerLine)
	sweep := m.Mem().AllocLines(1 << 14)
	sawCOH := false
	m.Run(func(s *Strand) {
		if s.ID() == 0 {
			for i := 0; i < 200 && !sawCOH; i++ {
				s.TxBegin()
				if _, ok := s.TxLoad(a); !ok {
					continue
				}
				s.Advance(500)
				if _, ok := s.TxLoad(a); !ok {
					if s.CPS().Has(2) { // cps.COH
						sawCOH = true
					}
					continue
				}
				s.TxCommit()
			}
		} else {
			for i := 0; i < 1<<13; i++ {
				s.Load(sweep + Addr((i*WordsPerLine)%(1<<14)))
			}
		}
	})
	if !sawCOH {
		t.Error("L2 displacement never doomed a marked line with COH")
	}
}

// ---- memory / allocator properties ----

func TestAllocNeverOverlapsQuick(t *testing.T) {
	prop := func(sizes []uint8) bool {
		cfg := DefaultConfig(1)
		cfg.MemWords = 1 << 18
		m := New(cfg)
		type span struct{ lo, hi int }
		var spans []span
		for _, raw := range sizes {
			n := 1 + int(raw)%64
			a := m.Mem().AllocLines(n)
			s := span{int(a), int(a) + n}
			for _, o := range spans {
				if s.lo < o.hi && o.lo < s.hi {
					return false
				}
			}
			spans = append(spans, s)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRemapRevokesAndFaultsBack(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MemWords = 1 << 16
	m := New(cfg)
	a := m.Mem().Alloc(PageWords, PageWords)
	m.Run(func(s *Strand) {
		s.Store(a, 5)
		m.Mem().Remap(a, PageWords)
		before := s.Stats().PageFaults
		if got := s.Load(a); got != 5 {
			t.Errorf("data lost across remap: %d", got)
		}
		if s.Stats().PageFaults != before+1 {
			t.Error("no page fault on first touch after remap")
		}
	})
}

// ---- SE vs SSE determinism and divergence ----

func TestModesDiverge(t *testing.T) {
	run := func(mode Mode) (committed bool) {
		cfg := DefaultConfig(1)
		cfg.MemWords = 1 << 18
		cfg.Mode = mode
		cfg.StoreAfterMissProb = 0
		m := New(cfg)
		a := m.Mem().AllocLines(24 * WordsPerLine)
		m.Run(func(s *Strand) {
			for p := PageOf(a); p <= PageOf(a+24*WordsPerLine-1); p++ {
				s.CAS(Addr(p)<<PageShift, 0, 0)
			}
			s.TxBegin()
			ok := true
			// 20 distinct lines: fits two banks of 16 (SSE), overflows two
			// banks of 8 (SE).
			for i := 0; i < 20 && ok; i++ {
				ok = s.TxStore(a+Addr(i*WordsPerLine), 1)
			}
			committed = ok && s.TxCommit()
		})
		return committed
	}
	if !run(SSE) {
		t.Error("20-line write set failed in SSE mode")
	}
	if run(SE) {
		t.Error("20-line write set fit the SE-mode store queue")
	}
}
