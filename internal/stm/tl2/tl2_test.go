package tl2

import (
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/sim"
	"rocktm/internal/stm"
)

func newMachine(strands int) *sim.Machine {
	cfg := sim.DefaultConfig(strands)
	cfg.MemWords = 1 << 21
	cfg.MaxCycles = 1 << 24
	return sim.New(cfg)
}

func TestReadOwnWrites(t *testing.T) {
	m := newMachine(1)
	sys := New(m)
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		sys.Atomic(s, func(c core.Ctx) {
			c.Store(a, 11)
			if got := c.Load(a); got != 11 {
				t.Errorf("read-own-write = %d, want 11", got)
			}
			c.Store(a, 12)
			if got := c.Load(a); got != 12 {
				t.Errorf("second read-own-write = %d, want 12", got)
			}
		})
	})
	if m.Mem().Peek(a) != 12 {
		t.Fatal("commit did not apply last write")
	}
}

func TestWritesInvisibleUntilCommit(t *testing.T) {
	// Strand 0 holds a transaction open over a long Advance; strand 1 must
	// not see its buffered write, then must see it after commit.
	m := newMachine(2)
	sys := New(m)
	a := m.Mem().AllocLines(8)
	saw := make([]sim.Word, 0, 4)
	m.Run(func(s *sim.Strand) {
		if s.ID() == 0 {
			sys.Atomic(s, func(c core.Ctx) {
				c.Store(a, 77)
				c.Strand().Advance(5000)
			})
		} else {
			s.Advance(2000)
			saw = append(saw, s.Load(a)) // mid-transaction
			s.Advance(8000)
			saw = append(saw, s.Load(a)) // after commit
		}
	})
	if len(saw) != 2 || saw[0] != 0 || saw[1] != 77 {
		t.Fatalf("observed %v, want [0 77]", saw)
	}
}

func TestClockAdvancesPerWriterCommit(t *testing.T) {
	m := newMachine(1)
	sys := New(m)
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		before := m.Mem().Peek(sys.clock)
		for i := 0; i < 5; i++ {
			sys.Atomic(s, func(c core.Ctx) { c.Store(a, sim.Word(i)) })
		}
		// Read-only transactions must not bump the clock.
		sys.Atomic(s, func(c core.Ctx) { c.Load(a) })
		after := m.Mem().Peek(sys.clock)
		if after-before != 5 {
			t.Errorf("clock advanced by %d, want 5", after-before)
		}
	})
}

func TestOrecSharedPerLine(t *testing.T) {
	m := newMachine(1)
	tbl := stm.NewOrecTable(m.Mem(), 1<<10)
	a := sim.Addr(4096)
	if tbl.OrecOf(a) != tbl.OrecOf(a+sim.WordsPerLine-1) {
		t.Error("words of one line map to different orecs")
	}
	if tbl.OrecOf(a) == tbl.OrecOf(a+sim.WordsPerLine) {
		t.Error("adjacent lines share an orec (table too small for test)")
	}
	if tbl.Size() != 1<<10 {
		t.Errorf("Size = %d", tbl.Size())
	}
}

func TestLockedVersionEncoding(t *testing.T) {
	v := stm.MakeOrec(41)
	if stm.Locked(v) {
		t.Error("fresh orec locked")
	}
	if stm.Version(v) != 41 {
		t.Errorf("version = %d", stm.Version(v))
	}
	if !stm.Locked(v | stm.LockBit) {
		t.Error("lock bit not detected")
	}
}

func TestAbortUnwindsOnlyAttempt(t *testing.T) {
	m := newMachine(1)
	sys := New(m)
	a := m.Mem().AllocLines(8)
	attempts := 0
	m.Run(func(s *sim.Strand) {
		sys.Atomic(s, func(c core.Ctx) {
			attempts++
			if attempts == 1 {
				stm.Abort() // explicit software retry
			}
			c.Store(a, 5)
		})
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if m.Mem().Peek(a) != 5 {
		t.Fatal("retried transaction did not commit")
	}
}
