// Package sky implements a SkySTM-flavoured software transactional memory
// (Lev, Luchangco, Marathe, Moir, Nussbaum, Olszewski 2008), the authors'
// own scalable STM and the default back end in the paper's "hytm", "phtm"
// and "stm" curves.
//
// Its defining property here is *semi-visible readers*: a reader announces
// itself on an ownership record (in SkySTM via a scalable SNZI counter,
// modelled here as per-strand-group counter shards on distinct cache
// lines), and a writer acquires the orec and then waits for announced
// readers to drain before touching data. That costs readers an atomic
// update per first touch of an orec — which is why it trails TL2's
// invisible readers on read-heavy microbenchmarks — but it is exactly what
// lets a *hardware* transaction detect software readers access-by-access,
// making this STM the one HyTM runs over (HWCtx).
//
// The descriptor, redo log, write locking and retry loop are stm's; Sky
// supplies its read barrier, its commit (which drains readers) and an End
// that withdraws the attempt's reader announcements.
package sky

import (
	"rocktm/internal/core"
	"rocktm/internal/rock"
	"rocktm/internal/sim"
	"rocktm/internal/stm"
)

const (
	// readerShards is the number of counter shards per orec (the SNZI-fanout
	// stand-in). Each shard table lives in its own region so shards of one
	// orec land on different cache lines.
	readerShards = 4
	// drainSpins bounds how many backoff rounds a committing writer waits
	// for announced readers before giving up and aborting itself.
	drainSpins = 32
)

// System is a Sky instance.
type System struct {
	orecs   stm.OrecTable
	readers [readerShards]sim.Addr // shard tables, each orecs.Size() words
	stats   *core.Stats
	byID    []txn
	hwByID  []hw
}

// New builds a Sky system for machine m.
func New(m *sim.Machine) *System {
	n := m.Config().Strands
	y := &System{
		orecs:  stm.NewOrecTable(m.Mem(), stm.DefaultOrecs),
		stats:  core.NewStats(),
		byID:   make([]txn, n),
		hwByID: make([]hw, n),
	}
	for i := range y.readers {
		// Stagger the shard tables so the shards of one orec land in
		// different L1 sets (equal power-of-two table sizes would alias
		// them all into the same set, and a HyTM hardware store probing
		// all four would blow a 4-way set immediately).
		m.Mem().AllocLines((2*i + 1) * 13 * sim.WordsPerLine)
		y.readers[i] = m.Mem().AllocLines(stm.DefaultOrecs)
	}
	for i := range y.byID {
		y.byID[i] = txn{Tx: stm.NewTx(m.Strand(i), y.orecs), sys: y}
		y.hwByID[i].sys = y
	}
	return y
}

// Name implements core.System.
func (y *System) Name() string { return "stm" }

// Stats implements core.System.
func (y *System) Stats() *core.Stats { return y.stats }

func (y *System) shardAddr(idx uint32, strand int) sim.Addr {
	return y.readers[strand%readerShards] + sim.Addr(idx)
}

// Atomic implements core.System.
func (y *System) Atomic(s *sim.Strand, body func(core.Ctx)) {
	stm.Atomic(s, y.stats, &y.byID[s.ID()], body)
}

// AtomicRO implements core.System.
func (y *System) AtomicRO(s *sim.Strand, body func(core.Ctx)) { y.Atomic(s, body) }

// txn is the per-strand transaction: stm's descriptor plus the orecs this
// attempt has announced itself on.
type txn struct {
	stm.Tx
	sys     *System
	readIdx []uint32 // orec indices announced by this attempt
}

func (c *txn) announced(idx uint32) bool {
	for _, r := range c.readIdx {
		if r == idx {
			return true
		}
	}
	return false
}

// Load implements core.Ctx: announce readership of the orec (first touch
// only), verify no writer holds it, then read.
func (c *txn) Load(a sim.Addr) sim.Word {
	if w, ok := c.Buffered(a); ok {
		c.S.Advance(stm.BookkeepCost)
		return w
	}
	// An announced line cannot change under this reader: writers drain
	// announced readers first, so a held orec is a writer past its drain.
	idx := c.sys.orecs.Index(a)
	if !c.announced(idx) {
		c.S.Add(c.sys.shardAddr(idx, c.S.ID()), 1)
		c.readIdx = append(c.readIdx, idx)
	}
	orec := c.sys.orecs.OrecOf(a)
	if stm.Locked(c.S.Load(orec)) {
		stm.Abort()
	}
	c.S.Advance(stm.BookkeepCost)
	return c.S.Load(a)
}

// Commit implements stm.Attempt: acquire every write orec, drain announced
// readers, apply the writes and release each orec one version on. Because
// writers wait out readers, readers need no commit-time validation: a
// location once announced cannot change under the reader.
func (c *txn) Commit() bool {
	s := c.S
	if c.ReadOnly() {
		return true
	}
	if !c.LockWrites(stm.NoBound) {
		return false
	}
	// Drain announced readers on every acquired orec (discounting our own
	// announcement).
	for _, orec := range c.Held() {
		idx := uint32(orec - c.sys.orecs.Base())
		self := sim.Word(0)
		if c.announced(idx) {
			self = 1
		}
		for spin := 0; ; spin++ {
			total := sim.Word(0)
			for sh := 0; sh < readerShards; sh++ {
				total += s.Load(c.sys.readers[sh] + sim.Addr(idx))
			}
			if total <= self {
				break
			}
			if spin >= drainSpins {
				return false
			}
			core.Backoff(s, spin)
		}
	}
	c.Publish(func(v sim.Word) sim.Word { return v + 1 })
	return true
}

// End implements stm.Attempt: restore any orecs still held, then withdraw
// the attempt's reader announcements.
func (c *txn) End() {
	c.Tx.End()
	for _, idx := range c.readIdx {
		c.S.Add(c.sys.shardAddr(idx, c.S.ID()), ^sim.Word(0))
	}
	c.readIdx = c.readIdx[:0]
}

// ---- HyTM hardware-path instrumentation ----

// hw is the instrumented hardware context: each access checks the
// corresponding orec (and, for stores, the reader shards) inside the
// hardware transaction, so software-side acquisitions and announcements
// doom it through ordinary coherence. Every other core.Ctx method is the
// transaction's own.
type hw struct {
	rock.Txn
	sys *System
}

// HWCtx returns the instrumented hardware context of transaction t. The
// context is the strand's own slot, so the hybrid's retry loop fetches it
// allocation-free on every attempt.
func (y *System) HWCtx(t rock.Txn) core.Ctx {
	h := &y.hwByID[t.Strand().ID()]
	h.Txn = t
	return h
}

// Load implements core.Ctx.
func (h *hw) Load(a sim.Addr) sim.Word {
	if stm.Locked(h.Txn.Load(h.sys.orecs.OrecOf(a))) {
		h.Abort()
	}
	return h.Txn.Load(a)
}

// Store implements core.Ctx: a hardware store must see no software writer
// *or reader* on the line.
func (h *hw) Store(a sim.Addr, w sim.Word) {
	if stm.Locked(h.Txn.Load(h.sys.orecs.OrecOf(a))) {
		h.Abort()
	}
	idx := h.sys.orecs.Index(a)
	for sh := 0; sh < readerShards; sh++ {
		if h.Txn.Load(h.sys.readers[sh]+sim.Addr(idx)) != 0 {
			h.Abort()
		}
	}
	h.Txn.Store(a, w)
}
