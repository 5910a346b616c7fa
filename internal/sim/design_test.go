package sim

import (
	"strings"
	"testing"

	"rocktm/internal/cps"
)

func newDesignMachine(strands int, d HTMDesign) *Machine {
	cfg := DefaultConfig(strands)
	cfg.MemWords = 1 << 18
	cfg.MaxCycles = 1 << 40
	cfg.CTIAbortProb = 0
	cfg.UCTIAbortProb = 0
	cfg.StoreAfterMissProb = 0
	cfg.HTM = d
	return New(cfg)
}

// TestRockDesignPointIsDefault pins the contract every golden digest rests
// on: the named "rock" design point IS the zero value, so a config that
// never mentions HTM and one that asks for Rock explicitly are the same
// machine.
func TestRockDesignPointIsDefault(t *testing.T) {
	if DesignPoint("rock") != (HTMDesign{}) {
		t.Fatalf("DesignPoint(rock) = %+v, want zero value", DesignPoint("rock"))
	}
	names := DesignPointNames()
	if len(names) < 4 || names[0] != "rock" {
		t.Fatalf("DesignPointNames() = %v, want rock first and >= 4 points", names)
	}
	base := DefaultConfig(2)
	explicit := base
	explicit.HTM = DesignPoint("rock")
	if base.Digest() != explicit.Digest() {
		t.Fatal("explicit rock design changed the config digest")
	}
}

// TestDesignPointsConstruct: every named point passes validation and
// builds a machine; at least three non-default points have digests that
// differ from the default and from each other (the runner cache keys).
func TestDesignPointsConstruct(t *testing.T) {
	base := DefaultConfig(2)
	base.MemWords = 1 << 16
	seen := map[string]string{base.Digest(): "rock"}
	nonDefault := 0
	for _, name := range DesignPointNames() {
		cfg := base
		cfg.HTM = DesignPoint(name)
		New(cfg) // must not panic
		if name == "rock" {
			continue
		}
		d := cfg.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("design %q has the same config digest as %q", name, prev)
		}
		seen[d] = name
		nonDefault++
	}
	if nonDefault < 3 {
		t.Fatalf("only %d non-default design points, want >= 3", nonDefault)
	}
}

func TestDesignValidateRejectsIncoherentPoints(t *testing.T) {
	cases := []struct {
		name    string
		d       HTMDesign
		wantMsg string
	}{
		{"eagervm+lazydet", HTMDesign{VM: VMEager, Detect: DetectLazy}, "incoherent"},
		{"lazydet+committer", HTMDesign{Detect: DetectLazy, Resolve: ResCommitterWins}, "first committer wins"},
		{"negative sticky", HTMDesign{StickyLines: -1}, "StickyLines"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("validate accepted %+v", tc.d)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, tc.wantMsg) {
					t.Fatalf("panic %v does not contain %q", r, tc.wantMsg)
				}
			}()
			cfg := DefaultConfig(1)
			cfg.MemWords = 1 << 16
			cfg.HTM = tc.d
			New(cfg)
		})
	}
}

func TestDesignPointUnknownNamePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("DesignPoint accepted an unknown name")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "rock") {
			t.Fatalf("panic %v does not enumerate the known points", r)
		}
	}()
	DesignPoint("no-such-design")
}

// ---- Decision tables: who aborts/stalls under each resolution policy ----

// TestCommitterWinsRequesterSelfAborts: under ResCommitterWins the holder
// of a conflicting line survives and the requester — after one NACK stall
// window — self-aborts with COH.
func TestCommitterWinsRequesterSelfAborts(t *testing.T) {
	m := newDesignMachine(2, DesignPoint("committer"))
	x := m.Mem().Alloc(2*WordsPerLine, WordsPerLine)
	xWarm := x + WordsPerLine // same page, different line: TLB warm only
	m.Run(func(s *Strand) {
		if s.ID() == 0 {
			s.CAS(x, 0, 0) // warm TLB + write permission
			s.TxBegin()
			if !s.TxStore(x, 7) {
				t.Errorf("holder's store failed: %v", s.CPS())
				return
			}
			s.Advance(20000) // hold the line across the requester's attempt
			if !s.TxCommit() {
				t.Errorf("holder did not survive requester-wins-off conflict: %v", s.CPS())
			}
		} else {
			s.CAS(xWarm, 0, 0)
			s.Advance(2000) // arrive while strand 0 holds x
			s.TxBegin()
			if s.TxStore(x, 9) {
				t.Error("requester's conflicting store succeeded under committer-wins")
				return
			}
			if got := s.CPS(); got != cps.COH {
				t.Errorf("requester CPS = %v, want COH", got)
			}
		}
	})
	if got := m.Mem().Peek(x); got != 7 {
		t.Errorf("x = %d after run, want the holder's 7", got)
	}
}

// TestTimestampYoungerRequesterLoses: a younger requester against an older
// holder stalls and self-aborts with COH, like committer-wins.
func TestTimestampYoungerRequesterLoses(t *testing.T) {
	m := newDesignMachine(2, DesignPoint("timestamp"))
	x := m.Mem().Alloc(2*WordsPerLine, WordsPerLine)
	xWarm := x + WordsPerLine
	m.Run(func(s *Strand) {
		if s.ID() == 0 {
			s.CAS(x, 0, 0)
			s.TxBegin() // older: first begin in virtual time
			if !s.TxStore(x, 7) {
				t.Errorf("older holder's store failed: %v", s.CPS())
				return
			}
			s.Advance(20000)
			if !s.TxCommit() {
				t.Errorf("older holder aborted: %v", s.CPS())
			}
		} else {
			s.CAS(xWarm, 0, 0)
			s.Advance(2000)
			s.TxBegin() // younger
			if s.TxStore(x, 9) {
				t.Error("younger requester beat an older holder under timestamp order")
				return
			}
			if got := s.CPS(); got != cps.COH {
				t.Errorf("younger requester CPS = %v, want COH", got)
			}
		}
	})
}

// TestTimestampOlderRequesterDoomsYounger: an older requester dooms a
// younger holder and proceeds without stalling — the half of the
// timestamp decision table that differs from committer-wins.
func TestTimestampOlderRequesterDoomsYounger(t *testing.T) {
	m := newDesignMachine(2, DesignPoint("timestamp"))
	x := m.Mem().Alloc(2*WordsPerLine, WordsPerLine)
	xWarm := x + WordsPerLine
	m.Run(func(s *Strand) {
		if s.ID() == 0 {
			s.CAS(x, 0, 0)
			s.TxBegin() // older: begins before strand 1's begin at ~1000
			s.Advance(5000)
			if !s.TxStore(x, 7) { // strand 1 holds x by now; older wins
				t.Errorf("older requester lost to a younger holder: %v", s.CPS())
				return
			}
			if !s.TxCommit() {
				t.Errorf("older requester failed to commit: %v", s.CPS())
			}
		} else {
			s.CAS(xWarm, 0, 0)
			s.Advance(1000)
			s.TxBegin()           // younger
			if !s.TxStore(x, 9) { // no conflict yet: strand 0 has not touched x
				t.Errorf("younger's uncontended store failed: %v", s.CPS())
				return
			}
			s.Advance(10000)
			if s.TxCommit() {
				t.Error("younger holder survived an older requester")
				return
			}
			if got := s.CPS(); got != cps.COH {
				t.Errorf("doomed younger CPS = %v, want COH", got)
			}
		}
	})
	if got := m.Mem().Peek(x); got != 7 {
		t.Errorf("x = %d after run, want the older transaction's 7", got)
	}
}

// TestLazyDetectionFirstCommitterWins: under DetectLazy a load of a line
// an active transaction has written dooms nobody at access time; the
// conflict surfaces when the writer commits, dooming the reader (first
// committer wins, COH delivered at the victim's next delivery point).
func TestLazyDetectionFirstCommitterWins(t *testing.T) {
	m := newDesignMachine(2, DesignPoint("lazydet"))
	x := m.Mem().Alloc(2*WordsPerLine, WordsPerLine)
	xWarm := x + WordsPerLine
	m.Run(func(s *Strand) {
		if s.ID() == 0 {
			s.CAS(x, 0, 0)
			s.TxBegin()
			if !s.TxStore(x, 7) {
				t.Errorf("writer's store failed: %v", s.CPS())
				return
			}
			s.Advance(100)
			// Under eager detection the reader's overlapping load would have
			// doomed us (requester wins); lazy detection must let us commit.
			if !s.TxCommit() {
				t.Errorf("writer doomed before commit under lazy detection: %v", s.CPS())
			}
		} else {
			s.Load(xWarm)
			s.Advance(50)
			s.TxBegin()
			if _, ok := s.TxLoad(x); !ok {
				t.Errorf("reader's overlapping load aborted at access time: %v", s.CPS())
				return
			}
			s.Advance(5000) // writer commits in this window
			if s.TxCommit() {
				t.Error("reader survived the writer's commit drain")
				return
			}
			if got := s.CPS(); got != cps.COH {
				t.Errorf("reader CPS = %v, want COH", got)
			}
		}
	})
	if got := m.Mem().Peek(x); got != 7 {
		t.Errorf("x = %d after run, want the committer's 7", got)
	}
}

// ---- Eager version management ----

// TestEagerVMInPlaceCommitAndRollback: stores land in memory immediately,
// commit leaves them, and an abort restores the undo log in reverse.
func TestEagerVMInPlaceCommitAndRollback(t *testing.T) {
	m := newDesignMachine(1, DesignPoint("eagervm"))
	x := m.Mem().Alloc(WordsPerLine, WordsPerLine)
	m.Run(func(s *Strand) {
		s.CAS(x, 0, 0)

		s.TxBegin()
		if !s.TxStore(x, 41) || !s.TxStore(x, 42) {
			t.Fatalf("eager stores failed: %v", s.CPS())
		}
		if got := m.Mem().Peek(x); got != 42 {
			t.Fatalf("mid-transaction memory = %d, want in-place 42", got)
		}
		if w, ok := s.TxLoad(x); !ok || w != 42 {
			t.Fatalf("read-own-write = %d/%v, want 42 through memory", w, ok)
		}
		s.TxSaveRestore() // forced INST abort
		if got := s.CPS(); !got.Has(cps.INST) {
			t.Fatalf("CPS = %v, want INST", got)
		}
		if got := m.Mem().Peek(x); got != 0 {
			t.Fatalf("post-abort memory = %d, want undo-log restore to 0", got)
		}

		s.TxBegin()
		if !s.TxStore(x, 7) {
			t.Fatalf("store failed: %v", s.CPS())
		}
		if !s.TxCommit() {
			t.Fatalf("commit failed: %v", s.CPS())
		}
	})
	if got := m.Mem().Peek(x); got != 7 {
		t.Errorf("committed value = %d, want 7", got)
	}
}

// TestLoadConflictDoomsWriterBeforeRead: a non-transactional load of a
// line an active transaction has written dooms the writer with exactly
// COH (requester wins), and the reader sees the old value. Under Rock the
// new value waits in the writer's store queue; under eager version
// management it is already in memory, so the writer's undo log must
// unroll before the load reads.
func TestLoadConflictDoomsWriterBeforeRead(t *testing.T) {
	for _, design := range []string{"rock", "eagervm"} {
		t.Run(design, func(t *testing.T) {
			m := newDesignMachine(2, DesignPoint(design))
			x := m.Mem().Alloc(2*WordsPerLine, WordsPerLine)
			m.Run(func(s *Strand) {
				if s.ID() == 0 {
					s.CAS(x, 0, 0)
					s.TxBegin()
					if !s.TxStore(x, 99) {
						t.Errorf("transactional store failed: %v", s.CPS())
						return
					}
					s.Advance(20000)
					if s.TxCommit() {
						t.Error("writer survived a conflicting non-transactional load")
						return
					}
					if got := s.CPS(); got != cps.COH {
						t.Errorf("writer CPS = %v, want COH", got)
					}
				} else {
					s.Advance(2000)
					if got := s.Load(x); got != 0 {
						t.Errorf("reader observed speculative value %d, want old value 0", got)
					}
				}
			})
			if got := m.Mem().Peek(x); got != 0 {
				t.Errorf("x = %d after run, want 0", got)
			}
		})
	}
}

// TestEagerVMNoStoreQueueBound: eager version management has no store
// queue, so the 33-distinct-lines overflow that aborts Rock with ST|SIZ
// commits fine.
func TestEagerVMNoStoreQueueBound(t *testing.T) {
	m := newDesignMachine(1, DesignPoint("eagervm"))
	a := m.Mem().Alloc(64*WordsPerLine, WordsPerLine)
	m.Run(func(s *Strand) {
		for p := PageOf(a); p <= PageOf(a+64*WordsPerLine-1); p++ {
			s.CAS(Addr(p)<<PageShift, 0, 0)
		}
		s.TxBegin()
		for i := 0; i < 40; i++ {
			if !s.TxStore(a+Addr(i*WordsPerLine), Word(i)) {
				t.Fatalf("store %d aborted under eager VM: %v", i, s.CPS())
			}
		}
		if !s.TxCommit() {
			t.Fatalf("40-store eager transaction failed: %v", s.CPS())
		}
	})
	if got := m.Mem().Peek(a + 39*WordsPerLine); got != 39 {
		t.Errorf("line 39 = %d, want 39", got)
	}
}

// ---- Sticky overflow sets ----

// stickySetLines returns n line-aligned addresses that all map to the same
// L1 set (line numbers congruent mod L1Sets; with 128 sets and 8-word
// lines the same-set stride is exactly one 1024-word page per line).
func stickySetLines(m *Machine, n int) []Addr {
	stride := Addr(L1Sets * WordsPerLine)
	base := m.Mem().Alloc(int(stride)*n, WordsPerLine)
	// Round up to the next same-set boundary so every address is stride-aligned.
	first := (base + stride - 1) &^ (stride - 1)
	if first+Addr(n-1)*stride >= base+Addr(int(stride)*n) {
		base = m.Mem().Alloc(int(stride)*(n+1), WordsPerLine)
		first = (base + stride - 1) &^ (stride - 1)
	}
	out := make([]Addr, n)
	for i := range out {
		out[i] = first + Addr(i)*stride
	}
	return out
}

// TestStickySetAbsorbsEvictionsUpToBound: with StickyLines=2, loading 6
// lines into one 4-way set (two marked displacements) commits; a 7th line
// (a third displacement, one past the bound) aborts with LD|SIZ. The same
// 6-line pattern under the default zero-tolerance design aborts with LD
// at the first displacement.
func TestStickySetAbsorbsEvictionsUpToBound(t *testing.T) {
	m := newDesignMachine(1, HTMDesign{StickyLines: 2})
	addrs := stickySetLines(m, 7)
	m.Run(func(s *Strand) {
		for _, a := range addrs {
			s.Load(a) // warm pages (walkable) and TLBs
		}
		// Exactly at the bound: 4 ways + 2 spills.
		s.TxBegin()
		for i, a := range addrs[:6] {
			if _, ok := s.TxLoad(a); !ok {
				t.Fatalf("load %d aborted within sticky bound: %v", i, s.CPS())
			}
		}
		if !s.TxCommit() {
			t.Fatalf("6-line same-set read set failed to commit with 2 sticky lines: %v", s.CPS())
		}
		// One past the bound: the 7th line needs a third spill.
		s.TxBegin()
		for i, a := range addrs {
			if _, ok := s.TxLoad(a); !ok {
				if i != 6 {
					t.Fatalf("aborted at load %d, want the 7th line", i)
				}
				if got := s.CPS(); got != cps.LD|cps.SIZ {
					t.Fatalf("sticky overflow CPS = %v, want LD|SIZ", got)
				}
				return
			}
		}
		t.Fatal("7 same-set lines did not overflow a 2-line sticky set")
	})
}

func TestDefaultDesignAbortsOnFirstMarkedEviction(t *testing.T) {
	m := newDesignMachine(1, HTMDesign{})
	addrs := stickySetLines(m, 5)
	m.Run(func(s *Strand) {
		for _, a := range addrs {
			s.Load(a)
		}
		s.TxBegin()
		for i, a := range addrs {
			if _, ok := s.TxLoad(a); !ok {
				if i != 4 {
					t.Fatalf("aborted at load %d, want the 5th line", i)
				}
				if got := s.CPS(); got != cps.LD {
					t.Fatalf("eviction CPS = %v, want LD", got)
				}
				return
			}
		}
		t.Fatal("5 same-set lines did not abort the zero-tolerance design")
	})
}

// TestStickyLineStillConflicts: a line that spilled into the sticky set
// has no L1 copy but keeps its directory marks, so a remote store to it
// must still doom the holder with COH — eviction tolerance must not
// weaken conflict detection.
func TestStickyLineStillConflicts(t *testing.T) {
	m := newDesignMachine(2, HTMDesign{StickyLines: 2})
	addrs := stickySetLines(m, 5)
	m.Run(func(s *Strand) {
		if s.ID() == 0 {
			for _, a := range addrs {
				s.Load(a)
			}
			s.TxBegin()
			for i, a := range addrs {
				if _, ok := s.TxLoad(a); !ok {
					t.Errorf("load %d aborted: %v", i, s.CPS())
					return
				}
			}
			// One of the five marked lines is now sticky (no L1 copy).
			s.Advance(60000) // strand 1's stores land in this window
			if s.TxCommit() {
				t.Error("holder survived remote stores to its read set")
				return
			}
			if got := s.CPS(); got != cps.COH {
				t.Errorf("holder CPS = %v, want COH (not an eviction reason)", got)
			}
		} else {
			s.Advance(30000)
			for _, a := range addrs {
				s.Store(a, 1) // hits marked and sticky lines alike
			}
		}
	})
}

// TestEvictMarkedFaultRespectsDesign: the EvictMarkedProb fault displaces
// marked lines through the same spillMarked decision as organic
// evictions — dooming the default design with LD and a sticky design,
// once past its bound, with LD|SIZ.
func TestEvictMarkedFaultRespectsDesign(t *testing.T) {
	run := func(d HTMDesign, want cps.Bits) {
		t.Helper()
		cfg := DefaultConfig(1)
		cfg.MemWords = 1 << 18
		cfg.MaxCycles = 1 << 40
		cfg.CTIAbortProb = 0
		cfg.UCTIAbortProb = 0
		cfg.StoreAfterMissProb = 0
		cfg.HTM = d
		cfg.Faults = FaultPlan{EvictMarkedProb: 1}
		m := New(cfg)
		a := m.Mem().Alloc(32*WordsPerLine, WordsPerLine)
		m.Run(func(s *Strand) {
			s.Load(a)
			s.TxBegin()
			for i := 0; i < 20; i++ {
				if _, ok := s.TxLoad(a + Addr(i*WordsPerLine)); !ok {
					if got := s.CPS(); got != want {
						t.Errorf("design %+v: fault-evicted CPS = %v, want %v", d, got, want)
					}
					return
				}
			}
			t.Errorf("design %+v: certain marked-line eviction never aborted", d)
		})
	}
	run(HTMDesign{}, cps.LD)
	run(HTMDesign{StickyLines: 1}, cps.LD|cps.SIZ)
}
