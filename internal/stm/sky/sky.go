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
// making this STM HyTM-capable (stm.HybridSTM).
package sky

import (
	"rocktm/internal/core"
	"rocktm/internal/obs"
	"rocktm/internal/rock"
	"rocktm/internal/sim"
	"rocktm/internal/stm"
)

const (
	// readerShards is the number of counter shards per orec (the SNZI-fanout
	// stand-in). Each shard table lives in its own region so shards of one
	// orec land on different cache lines.
	readerShards = 4
	// bookkeepCost approximates thread-local logging per barrier, in cycles.
	bookkeepCost = 2
	// drainSpins bounds how many backoff rounds a committing writer waits
	// for announced readers before giving up and aborting itself.
	drainSpins = 32
)

// System is a Sky instance.
type System struct {
	orecs   stm.OrecTable
	readers [readerShards]sim.Addr // shard tables, each orecs.Size() words
	stats   *core.Stats
	byID    []*txn
	hwByID  []core.Ctx // per-strand pre-boxed *hw (see HWCtx)
}

// New builds a Sky system for machine m with the default orec-table size.
func New(m *sim.Machine) *System { return NewSized(m, stm.DefaultOrecs) }

// NewSized builds a Sky system with n orecs.
func NewSized(m *sim.Machine, n int) *System {
	sys := &System{
		orecs:  stm.NewOrecTable(m.Mem(), n),
		stats:  core.NewStats(),
		byID:   make([]*txn, m.Config().Strands),
		hwByID: make([]core.Ctx, m.Config().Strands),
	}
	for i := range sys.readers {
		// Stagger the shard tables so the shards of one orec land in
		// different L1 sets (equal power-of-two table sizes would alias
		// them all into the same set, and a HyTM hardware store probing
		// all four would blow a 4-way set immediately).
		m.Mem().AllocLines((2*i + 1) * 13 * sim.WordsPerLine)
		sys.readers[i] = m.Mem().AllocLines(n)
	}
	return sys
}

var _ stm.HybridSTM = (*System)(nil)

// Name implements core.System.
func (y *System) Name() string { return "stm" }

// Stats implements core.System.
func (y *System) Stats() *core.Stats { return y.stats }

func (y *System) shardAddr(idx uint32, strand int) sim.Addr {
	return y.readers[strand%readerShards] + sim.Addr(idx)
}

// txn is the per-strand transaction descriptor.
type txn struct {
	sys *System
	s   *sim.Strand

	readIdx    []uint32 // orec indices announced by this transaction
	writeAddrs []sim.Addr
	writeVals  []sim.Word
	lockOrecs  []sim.Addr
	lockPrev   []sim.Word
}

func (y *System) ctxFor(s *sim.Strand) *txn {
	c := y.byID[s.ID()]
	if c == nil {
		c = &txn{sys: y, s: s}
		y.byID[s.ID()] = c
	}
	return c
}

// Atomic implements core.System.
func (y *System) Atomic(s *sim.Strand, body func(core.Ctx)) {
	c := y.ctxFor(s)
	for attempt := 0; ; attempt++ {
		c.begin()
		ok := stm.RunAttempt(body, c)
		if ok && c.commit() {
			c.cleanup(false)
			y.stats.Ops++
			y.stats.SWCommits++
			s.TraceEvent(obs.EvSWCommit, 0)
			return
		}
		c.cleanup(true)
		y.stats.SWAborts++
		s.TraceEvent(obs.EvSWAbort, 0)
		core.Backoff(s, attempt)
	}
}

// AtomicRO implements core.System.
func (y *System) AtomicRO(s *sim.Strand, body func(core.Ctx)) { y.Atomic(s, body) }

func (c *txn) begin() {
	c.readIdx = c.readIdx[:0]
	c.writeAddrs = c.writeAddrs[:0]
	c.writeVals = c.writeVals[:0]
	c.lockOrecs = c.lockOrecs[:0]
	c.lockPrev = c.lockPrev[:0]
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
	for i := len(c.writeAddrs) - 1; i >= 0; i-- {
		if c.writeAddrs[i] == a {
			c.s.Advance(bookkeepCost)
			return c.writeVals[i]
		}
	}
	idx := c.sys.orecs.Index(a)
	if !c.announced(idx) {
		c.s.Add(c.sys.shardAddr(idx, c.s.ID()), 1)
		c.readIdx = append(c.readIdx, idx)
	}
	orec := c.sys.orecs.OrecOf(a)
	if stm.Locked(c.s.Load(orec)) && !c.ownsOrec(orec) {
		stm.Abort()
	}
	c.s.Advance(bookkeepCost)
	return c.s.Load(a)
}

// Store implements core.Ctx: buffer until commit.
func (c *txn) Store(a sim.Addr, w sim.Word) {
	c.writeAddrs = append(c.writeAddrs, a)
	c.writeVals = append(c.writeVals, w)
	c.s.Advance(bookkeepCost + 1)
}

// Branch implements core.Ctx.
func (c *txn) Branch(pc uint32, taken bool, _ bool) { c.s.Branch(pc, taken) }

// Div implements core.Ctx.
func (c *txn) Div() { c.s.Advance(core.DivCost) }

// Call implements core.Ctx.
func (c *txn) Call() { c.s.Advance(core.CallCost) }

// Strand implements core.Ctx.
func (c *txn) Strand() *sim.Strand { return c.s }

func (c *txn) ownsOrec(orec sim.Addr) bool {
	for _, o := range c.lockOrecs {
		if o == orec {
			return true
		}
	}
	return false
}

// commit acquires every write orec, drains announced readers, applies the
// writes and releases. Because writers wait out readers, readers need no
// commit-time validation: a location once announced cannot change under
// the reader.
func (c *txn) commit() bool {
	s := c.s
	if len(c.writeAddrs) == 0 {
		return true
	}
	for _, a := range c.writeAddrs {
		orec := c.sys.orecs.OrecOf(a)
		if c.ownsOrec(orec) {
			continue
		}
		o := s.Load(orec)
		if stm.Locked(o) {
			return false
		}
		if _, ok := s.CAS(orec, o, o|stm.LockBit); !ok {
			return false
		}
		c.lockOrecs = append(c.lockOrecs, orec)
		c.lockPrev = append(c.lockPrev, o)
	}
	// Drain announced readers on every acquired orec (discounting our own
	// announcement).
	for _, orec := range c.lockOrecs {
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
	for i, a := range c.writeAddrs {
		s.Store(a, c.writeVals[i])
	}
	for i, orec := range c.lockOrecs {
		s.Store(orec, stm.MakeOrec(stm.Version(c.lockPrev[i])+1))
	}
	c.lockOrecs = c.lockOrecs[:0]
	c.lockPrev = c.lockPrev[:0]
	return true
}

// cleanup withdraws reader announcements and, after a failed attempt,
// restores any orecs still held.
func (c *txn) cleanup(failed bool) {
	if failed {
		for i, orec := range c.lockOrecs {
			c.s.Store(orec, c.lockPrev[i])
		}
		c.lockOrecs = c.lockOrecs[:0]
		c.lockPrev = c.lockPrev[:0]
	}
	for _, idx := range c.readIdx {
		c.s.Add(c.sys.shardAddr(idx, c.s.ID()), ^sim.Word(0))
	}
	c.readIdx = c.readIdx[:0]
}

// ---- HyTM hardware-path instrumentation ----

// hw is the instrumented hardware context: each access checks the
// corresponding orec (and, for stores, the reader shards) inside the
// hardware transaction, so software-side acquisitions and announcements
// doom it through ordinary coherence.
type hw struct {
	sys *System
	t   rock.Txn
}

// HWCtx implements stm.HybridSTM. The rock.Txn value is fully determined by
// the strand, so the boxed *hw is built once per strand and cached: the
// hybrid's retry loop re-fetches it allocation-free on every attempt.
func (y *System) HWCtx(t rock.Txn) core.Ctx {
	id := t.Strand().ID()
	c := y.hwByID[id]
	if c == nil {
		c = &hw{sys: y, t: t}
		y.hwByID[id] = c
	}
	return c
}

// Load implements core.Ctx.
func (h *hw) Load(a sim.Addr) sim.Word {
	if stm.Locked(h.t.Load(h.sys.orecs.OrecOf(a))) {
		h.t.Abort()
	}
	return h.t.Load(a)
}

// Store implements core.Ctx: a hardware store must see no software writer
// *or reader* on the line.
func (h *hw) Store(a sim.Addr, w sim.Word) {
	if stm.Locked(h.t.Load(h.sys.orecs.OrecOf(a))) {
		h.t.Abort()
	}
	idx := h.sys.orecs.Index(a)
	for sh := 0; sh < readerShards; sh++ {
		if h.t.Load(h.sys.readers[sh]+sim.Addr(idx)) != 0 {
			h.t.Abort()
		}
	}
	h.t.Store(a, w)
}

// Branch implements core.Ctx.
func (h *hw) Branch(pc uint32, taken bool, dependsOnLoad bool) {
	h.t.Branch(pc, taken, dependsOnLoad)
}

// Div implements core.Ctx.
func (h *hw) Div() { h.t.Div() }

// Call implements core.Ctx.
func (h *hw) Call() { h.t.Call() }

// Strand implements core.Ctx.
func (h *hw) Strand() *sim.Strand { return h.t.Strand() }
