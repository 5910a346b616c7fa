package sky

import (
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/rock"
	"rocktm/internal/sim"
)

func newMachine(strands int) *sim.Machine {
	cfg := sim.DefaultConfig(strands)
	cfg.MemWords = 1 << 21
	cfg.MaxCycles = 1 << 24
	return sim.New(cfg)
}

func TestReaderAnnouncementsDrain(t *testing.T) {
	m := newMachine(1)
	sys := New(m)
	a := m.Mem().AllocLines(8)
	idx := sys.orecs.Index(a)
	m.Run(func(s *sim.Strand) {
		sys.Atomic(s, func(c core.Ctx) { c.Load(a) })
		// After commit every shard count must be back to zero.
		var total sim.Word
		for sh := 0; sh < readerShards; sh++ {
			total += m.Mem().Peek(sys.readers[sh] + sim.Addr(idx))
		}
		if total != 0 {
			t.Errorf("reader announcements leaked: %d", total)
		}
	})
}

func TestWriterWaitsForReader(t *testing.T) {
	// Strand 0 reads a and dwells inside its transaction; strand 1 tries to
	// commit a write to a meanwhile. The writer must not apply while the
	// reader is announced, so the reader's second load must equal its first.
	m := newMachine(2)
	sys := New(m)
	a := m.Mem().AllocLines(8)
	torn := false
	m.Run(func(s *sim.Strand) {
		if s.ID() == 0 {
			sys.Atomic(s, func(c core.Ctx) {
				v1 := c.Load(a)
				c.Strand().Advance(4000)
				if c.Load(a) != v1 {
					torn = true
				}
			})
		} else {
			s.Advance(1000)
			sys.Atomic(s, func(c core.Ctx) { c.Store(a, 99) })
		}
	})
	if torn {
		t.Fatal("writer applied under an announced reader")
	}
	if m.Mem().Peek(a) != 99 {
		t.Fatal("writer never committed")
	}
}

func TestHWCtxConflictsWithSoftwareWriter(t *testing.T) {
	// A software transaction holds a's orec (mid-commit dwell via body
	// re-execution) while a hardware transaction probes it through HWCtx:
	// the hardware attempt must abort rather than read.
	m := newMachine(2)
	sys := New(m)
	a := m.Mem().AllocLines(8)
	var hwOK, hwRan bool
	m.Run(func(s *sim.Strand) {
		if s.ID() == 0 {
			sys.Atomic(s, func(c core.Ctx) {
				c.Store(a, 5)
				c.Strand().Advance(3000) // keep the txn window open
			})
		} else {
			s.Advance(1000)
			hwRan = true
			hwOK, _ = rock.Try(s, func(tx rock.Txn) {
				h := sys.HWCtx(tx)
				h.Store(a, 7)
				tx.Advance(5000) // overlap the software commit
			})
		}
	})
	if !hwRan {
		t.Fatal("hardware attempt never ran")
	}
	// Either the hardware txn aborted (software won) or it committed fully
	// before the software commit (then the final value is 5). Both are
	// serializable; what must never happen is a mix.
	final := m.Mem().Peek(a)
	if hwOK && final != 5 && final != 7 {
		t.Fatalf("final value %d not a serializable outcome", final)
	}
	if final != 5 && final != 7 {
		t.Fatalf("final value %d from neither writer", final)
	}
}

func TestShardTablesStaggered(t *testing.T) {
	m := newMachine(1)
	sys := New(m)
	// The four shard entries of one orec must not all land in the same L1
	// set (that aliasing made HyTM hardware stores blow a 4-way set).
	const l1Sets = 128
	idx := uint32(5)
	sets := map[int32]bool{}
	for sh := 0; sh < readerShards; sh++ {
		line := sim.LineOf(sys.readers[sh] + sim.Addr(idx))
		sets[line%l1Sets] = true
	}
	if len(sets) < 3 {
		t.Errorf("shards of one orec alias into %d L1 sets", len(sets))
	}
}
