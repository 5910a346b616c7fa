// Package tl2 implements the TL2 software transactional memory of Dice,
// Shalev and Shavit (DISC 2006), the state-of-the-art STM the paper
// benchmarks against ("stm-tl2", "phtm-tl2"): a global version clock,
// per-line versioned-lock ownership records, invisible readers with
// commit-time validation, and commit-time write locking.
package tl2

import (
	"rocktm/internal/core"
	"rocktm/internal/obs"
	"rocktm/internal/sim"
	"rocktm/internal/stm"
)

// bookkeepCost approximates the thread-local read-/write-set logging cost
// of one STM barrier, in cycles (the logs themselves are cache-hot
// thread-local memory, so they are charged as compute rather than simulated
// traffic).
const bookkeepCost = 2

// maxWaitSpins bounds how long a committer waits for nothing — TL2 never
// waits; it aborts on any locked orec it encounters.

// System is a TL2 instance: orec table and global clock in simulated
// memory.
type System struct {
	orecs stm.OrecTable
	clock sim.Addr
	stats *core.Stats
	byID  []*txn
}

// New builds a TL2 system for machine m with the default orec-table size.
func New(m *sim.Machine) *System { return NewSized(m, stm.DefaultOrecs) }

// NewSized builds a TL2 system with n orecs.
func NewSized(m *sim.Machine, n int) *System {
	sys := &System{
		orecs: stm.NewOrecTable(m.Mem(), n),
		clock: m.Mem().AllocLines(sim.WordsPerLine),
		stats: core.NewStats(),
		byID:  make([]*txn, m.Config().Strands),
	}
	return sys
}

// Name implements core.System.
func (y *System) Name() string { return "stm-tl2" }

// Stats implements core.System.
func (y *System) Stats() *core.Stats { return y.stats }

// txn is the per-strand transaction descriptor.
type txn struct {
	sys *System
	s   *sim.Strand
	rv  sim.Word

	readOrecs  []sim.Addr
	writeAddrs []sim.Addr
	writeVals  []sim.Word

	lockOrecs []sim.Addr
	lockPrev  []sim.Word
}

func (y *System) ctxFor(s *sim.Strand) *txn {
	c := y.byID[s.ID()]
	if c == nil {
		c = &txn{sys: y, s: s}
		y.byID[s.ID()] = c
	}
	return c
}

// Atomic implements core.System: it runs body as software transactions
// until one commits.
func (y *System) Atomic(s *sim.Strand, body func(core.Ctx)) {
	c := y.ctxFor(s)
	for attempt := 0; ; attempt++ {
		c.begin()
		ok := stm.RunAttempt(body, c)
		if ok && c.commit() {
			y.stats.Ops++
			y.stats.SWCommits++
			s.TraceEvent(obs.EvSWCommit, 0)
			return
		}
		c.releaseLocks(false)
		y.stats.SWAborts++
		s.TraceEvent(obs.EvSWAbort, 0)
		core.Backoff(s, attempt)
	}
}

// AtomicRO implements core.System.
func (y *System) AtomicRO(s *sim.Strand, body func(core.Ctx)) { y.Atomic(s, body) }

func (c *txn) begin() {
	c.rv = c.s.Load(c.sys.clock)
	c.readOrecs = c.readOrecs[:0]
	c.writeAddrs = c.writeAddrs[:0]
	c.writeVals = c.writeVals[:0]
	c.lockOrecs = c.lockOrecs[:0]
	c.lockPrev = c.lockPrev[:0]
}

// Load implements core.Ctx: read the value, post-validate its orec against
// the read version, log the orec.
func (c *txn) Load(a sim.Addr) sim.Word {
	// Read-own-writes.
	for i := len(c.writeAddrs) - 1; i >= 0; i-- {
		if c.writeAddrs[i] == a {
			c.s.Advance(bookkeepCost)
			return c.writeVals[i]
		}
	}
	// The TL2 read barrier samples the orec before AND after reading the
	// data: the pre-sample rejects in-progress writers, the post-sample
	// rejects writers that completed mid-read. Version ≤ rv alone is not
	// enough — a write serialized before our snapshot may have *applied*
	// after we loaded the data.
	orec := c.sys.orecs.OrecOf(a)
	o1 := c.s.Load(orec)
	if stm.Locked(o1) || stm.Version(o1) > c.rv {
		stm.Abort()
	}
	val := c.s.Load(a)
	o2 := c.s.Load(orec)
	if o2 != o1 {
		stm.Abort()
	}
	c.readOrecs = append(c.readOrecs, orec)
	c.s.Advance(bookkeepCost)
	return val
}

// Store implements core.Ctx: buffer the write until commit.
func (c *txn) Store(a sim.Addr, w sim.Word) {
	c.writeAddrs = append(c.writeAddrs, a)
	c.writeVals = append(c.writeVals, w)
	c.s.Advance(bookkeepCost + 1)
}

// Branch implements core.Ctx (outside a hardware transaction a mispredict
// just costs cycles).
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

// commit runs the TL2 commit protocol: lock the write set's orecs, bump the
// global clock, validate the read set, apply the writes, release with the
// new version.
func (c *txn) commit() bool {
	s := c.s
	// Read-only fast path.
	if len(c.writeAddrs) == 0 {
		return true
	}
	// Acquire write locks (deduplicated; abort on any contention).
	for _, a := range c.writeAddrs {
		orec := c.sys.orecs.OrecOf(a)
		if c.ownsOrec(orec) {
			continue
		}
		o := s.Load(orec)
		if stm.Locked(o) {
			return false
		}
		// The version must not postdate our snapshot: this also covers
		// locations we both read and write, which validation below would
		// otherwise skip as owned-by-us.
		if stm.Version(o) > c.rv {
			return false
		}
		if _, ok := s.CAS(orec, o, o|stm.LockBit); !ok {
			return false
		}
		c.lockOrecs = append(c.lockOrecs, orec)
		c.lockPrev = append(c.lockPrev, o)
	}
	wv := s.Add(c.sys.clock, 1)
	// Validate the read set (skippable when nothing committed in between).
	if wv != c.rv+1 {
		for _, orec := range c.readOrecs {
			o := s.Load(orec)
			if stm.Locked(o) && !c.ownsOrec(orec) {
				return false
			}
			if !stm.Locked(o) && stm.Version(o) > c.rv {
				return false
			}
		}
	}
	// Apply the write set and release the locks at the new version.
	for i, a := range c.writeAddrs {
		s.Store(a, c.writeVals[i])
	}
	for _, orec := range c.lockOrecs {
		s.Store(orec, stm.MakeOrec(wv))
	}
	c.lockOrecs = c.lockOrecs[:0]
	c.lockPrev = c.lockPrev[:0]
	return true
}

// releaseLocks restores the previous orec values after a failed commit.
// The committed flag distinguishes cleanup paths; on success locks were
// already released at the new version.
func (c *txn) releaseLocks(committed bool) {
	if committed {
		return
	}
	for i, orec := range c.lockOrecs {
		c.s.Store(orec, c.lockPrev[i])
	}
	c.lockOrecs = c.lockOrecs[:0]
	c.lockPrev = c.lockPrev[:0]
}
