// Package tl2 implements the TL2 software transactional memory of Dice,
// Shalev and Shavit (DISC 2006), the state-of-the-art STM the paper
// benchmarks against ("stm-tl2", "phtm-tl2"): a global version clock,
// per-line versioned-lock ownership records, invisible readers with
// commit-time validation, and commit-time write locking.
//
// The descriptor, redo log, write locking and retry loop are stm's; TL2
// supplies the clock sample at Begin, its read barrier and its commit.
package tl2

import (
	"rocktm/internal/core"
	"rocktm/internal/sim"
	"rocktm/internal/stm"
)

// System is a TL2 instance: orec table and global clock in simulated
// memory.
type System struct {
	orecs stm.OrecTable
	clock sim.Addr
	stats *core.Stats
	byID  []txn
}

// New builds a TL2 system for machine m.
func New(m *sim.Machine) *System {
	y := &System{
		orecs: stm.NewOrecTable(m.Mem(), stm.DefaultOrecs),
		clock: m.Mem().AllocLines(sim.WordsPerLine),
		stats: core.NewStats(),
		byID:  make([]txn, m.Config().Strands),
	}
	for i := range y.byID {
		y.byID[i] = txn{Tx: stm.NewTx(m.Strand(i), y.orecs), sys: y}
	}
	return y
}

// Name implements core.System.
func (y *System) Name() string { return "stm-tl2" }

// Stats implements core.System.
func (y *System) Stats() *core.Stats { return y.stats }

// Atomic implements core.System: it runs body as software transactions
// until one commits.
func (y *System) Atomic(s *sim.Strand, body func(core.Ctx)) {
	stm.Atomic(s, y.stats, &y.byID[s.ID()], body)
}

// AtomicRO implements core.System.
func (y *System) AtomicRO(s *sim.Strand, body func(core.Ctx)) { y.Atomic(s, body) }

// txn is the per-strand transaction: stm's descriptor plus the snapshot
// version and the read set of orecs to validate at commit.
type txn struct {
	stm.Tx
	sys       *System
	rv        sim.Word
	readOrecs []sim.Addr
}

// Begin implements stm.Attempt: sample the global clock as the snapshot.
func (c *txn) Begin() {
	c.rv = c.S.Load(c.sys.clock)
	c.readOrecs = c.readOrecs[:0]
	c.Tx.Begin()
}

// Load implements core.Ctx: read the value, post-validate its orec against
// the read version, log the orec.
func (c *txn) Load(a sim.Addr) sim.Word {
	if w, ok := c.Buffered(a); ok {
		c.S.Advance(stm.BookkeepCost)
		return w
	}
	// The TL2 read barrier samples the orec before AND after reading the
	// data: the pre-sample rejects in-progress writers, the post-sample
	// rejects writers that completed mid-read. Version ≤ rv alone is not
	// enough — a write serialized before our snapshot may have *applied*
	// after we loaded the data. The orec then joins the read set, one
	// entry per read: readers are invisible, so nothing stops a writer
	// from committing after this barrier, and commit re-checks every
	// entry against rv whenever a writer has committed since Begin.
	orec := c.sys.orecs.OrecOf(a)
	o1 := c.S.Load(orec)
	if stm.Locked(o1) || stm.Version(o1) > c.rv {
		stm.Abort()
	}
	val := c.S.Load(a)
	o2 := c.S.Load(orec)
	if o2 != o1 {
		stm.Abort()
	}
	c.readOrecs = append(c.readOrecs, orec)
	c.S.Advance(stm.BookkeepCost)
	return val
}

// Commit implements stm.Attempt with the TL2 commit protocol: lock the
// write set's orecs, bump the global clock, validate the read set, apply
// the writes and release the orecs at the new version.
func (c *txn) Commit() bool {
	// Read-only fast path.
	if c.ReadOnly() {
		return true
	}
	// No locked orec and no version past our snapshot: the bound also
	// covers locations we both read and write, which validation below
	// would otherwise skip as ours.
	if !c.LockWrites(c.rv) {
		return false
	}
	wv := c.S.Add(c.sys.clock, 1)
	// Validate the read set (skippable when nothing committed in between).
	if wv != c.rv+1 {
		for _, orec := range c.readOrecs {
			o := c.S.Load(orec)
			if stm.Locked(o) && !c.Owns(orec) {
				return false
			}
			if !stm.Locked(o) && stm.Version(o) > c.rv {
				return false
			}
		}
	}
	c.Publish(func(sim.Word) sim.Word { return wv })
	return true
}
