package stm

import (
	"strings"
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/obs"
	"rocktm/internal/sim"
)

func newMachine() *sim.Machine {
	cfg := sim.DefaultConfig(1)
	cfg.MemWords = 1 << 18
	cfg.MaxCycles = 1 << 24
	return sim.New(cfg)
}

func TestRunAttemptConvertsAbort(t *testing.T) {
	if ok := runAttempt(func(core.Ctx) { Abort() }, nil); ok {
		t.Fatal("aborted attempt reported success")
	}
	if ok := runAttempt(func(core.Ctx) {}, nil); !ok {
		t.Fatal("clean attempt reported failure")
	}
}

func TestRunAttemptPropagatesForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed")
		}
	}()
	runAttempt(func(core.Ctx) { panic("bug") }, nil)
}

// scripted is an Attempt that logs each step Atomic takes, and the
// software-transaction events, as one letter each: B(egin), b(ody),
// C(ommit), E(nd), a(bort event), c(ommit event). Its first failCommits
// Commits fail.
type scripted struct {
	core.Raw
	log         strings.Builder
	failCommits int
}

func (x *scripted) Begin() { x.log.WriteByte('B') }
func (x *scripted) End()   { x.log.WriteByte('E') }
func (x *scripted) Commit() bool {
	x.log.WriteByte('C')
	if x.failCommits > 0 {
		x.failCommits--
		return false
	}
	return true
}

func (x *scripted) SinkEvent(_ int, _ int64, kind obs.EventKind, _ uint64) {
	switch kind {
	case obs.EvSWAbort:
		x.log.WriteByte('a')
	case obs.EvSWCommit:
		x.log.WriteByte('c')
	}
}

// TestAtomicRunsEndAfterEveryAttempt drives the retry loop with a body
// that aborts once and a Commit that fails twice: every attempt must
// begin, skip Commit only when its body unwound, and end before its
// outcome is counted and traced.
func TestAtomicRunsEndAfterEveryAttempt(t *testing.T) {
	m := newMachine()
	x := &scripted{failCommits: 2}
	m.AttachEventSink(x)
	stats := core.NewStats()
	bodies := 0
	m.Run(func(s *sim.Strand) {
		x.S = s
		Atomic(s, stats, x, func(c core.Ctx) {
			x.log.WriteByte('b')
			bodies++
			if bodies == 1 {
				Abort()
			}
		})
	})
	if got, want := x.log.String(), "BbEa"+"BbCEa"+"BbCEa"+"BbCEc"; got != want {
		t.Errorf("steps = %s, want %s", got, want)
	}
	log := x.log.String()
	if b, c, e := strings.Count(log, "B"), strings.Count(log, "C"), strings.Count(log, "E"); b != 4 || c != 3 || e != 4 {
		t.Errorf("Begin/Commit/End = %d/%d/%d, want 4/3/4", b, c, e)
	}
	if stats.Ops != 1 || stats.SWCommits != 1 || stats.SWAborts != 3 {
		t.Errorf("Ops %d, SWCommits %d, SWAborts %d; want 1, 1, 3", stats.Ops, stats.SWCommits, stats.SWAborts)
	}
}

// TestLockWritesRollsBackAndPublishes locks a redo log whose second
// store's orec is already locked: LockWrites must fail holding only the
// first orec, and End must restore it. Unlocked, the same log locks and
// publishes, leaving each orec unlocked at the version Publish chose.
func TestLockWritesRollsBackAndPublishes(t *testing.T) {
	m := newMachine()
	mem := m.Mem()
	orecs := NewOrecTable(mem, 1<<8)
	a := mem.AllocLines(sim.WordsPerLine)
	b := mem.AllocLines(sim.WordsPerLine)
	oa, ob := orecs.OrecOf(a), orecs.OrecOf(b)
	mem.Poke(oa, MakeOrec(3))
	mem.Poke(ob, MakeOrec(5)|LockBit)
	m.Run(func(s *sim.Strand) {
		tx := NewTx(s, orecs)
		tx.Begin()
		tx.Store(a, 10)
		tx.Store(b, 20)
		tx.Store(a, 11)
		if w, ok := tx.Buffered(a); !ok || w != 11 {
			t.Errorf("Buffered(a) = %d, %v; want 11, true", w, ok)
		}
		if tx.LockWrites(NoBound) {
			t.Fatal("LockWrites took a locked orec")
		}
		if held := tx.Held(); len(held) != 1 || held[0] != oa || !tx.Owns(oa) {
			t.Fatalf("held %v after the failure, want only a's orec %d", held, oa)
		}
		if !Locked(s.Load(oa)) {
			t.Fatal("a's orec not locked while held")
		}
		tx.End()
		if got := s.Load(oa); got != MakeOrec(3) {
			t.Fatalf("End left a's orec at %#x, want its pre-lock %#x", got, MakeOrec(3))
		}
		if len(tx.Held()) != 0 {
			t.Fatal("End kept orecs held")
		}

		s.Store(ob, MakeOrec(5))
		if tx.LockWrites(4) {
			t.Fatal("LockWrites took an orec whose version is past its bound")
		}
		tx.End()
		if !tx.LockWrites(NoBound) {
			t.Fatal("LockWrites failed on free orecs")
		}
		tx.Publish(func(v sim.Word) sim.Word { return v + 7 })
		tx.End()
		if len(tx.Held()) != 0 {
			t.Fatal("Publish kept orecs held")
		}
	})
	for _, c := range []struct {
		orec sim.Addr
		want sim.Word
	}{{oa, MakeOrec(10)}, {ob, MakeOrec(12)}} {
		if got := mem.Peek(c.orec); got != c.want {
			t.Errorf("orec %d = %#x, want unlocked at %#x", c.orec, got, c.want)
		}
	}
	if mem.Peek(a) != 11 || mem.Peek(b) != 20 {
		t.Errorf("published a=%d b=%d, want 11 and 20", mem.Peek(a), mem.Peek(b))
	}
}

func TestOrecTableRejectsBadSizes(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.MemWords = 1 << 16
	m := sim.New(cfg)
	for _, n := range []int{0, -4, 3, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d accepted", n)
				}
			}()
			NewOrecTable(m.Mem(), n)
		}()
	}
}

func TestOrecIndexAndBaseAgree(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.MemWords = 1 << 16
	m := sim.New(cfg)
	tbl := NewOrecTable(m.Mem(), 256)
	for _, a := range []sim.Addr{0, 7, 8, 4096, 65535} {
		if tbl.OrecOf(a) != tbl.Base()+sim.Addr(tbl.Index(a)) {
			t.Fatalf("OrecOf/Index disagree at %d", a)
		}
	}
}
