// Package hashtable implements the transactional hash table of Section 5:
// a large bucket array (2^17 buckets in the paper's runs) of singly linked
// chains, sized so that chains are almost always empty or a single node and
// the common case stays simple. Operations are written once against
// core.Ctx; the same kernel runs under every synchronization system.
package hashtable

import (
	"rocktm/internal/alloc"
	"rocktm/internal/core"
	"rocktm/internal/sim"
)

// Node layout (line-aligned, one node per cache line):
const (
	fKey      = 0
	fVal      = 1
	fNext     = 2
	nodeWords = sim.WordsPerLine
)

// Branch sites.
var (
	pcWalkNil = core.PC("hashtable.walk.nil")
	pcWalkKey = core.PC("hashtable.walk.key")
)

// Table is a fixed-size chained hash table in simulated memory.
type Table struct {
	buckets  sim.Addr
	nBuckets int
	mask     uint64
	pool     *alloc.Pool
}

// New builds a table with nBuckets buckets (a power of two) and capacity
// for at most capacity resident nodes (plus churn headroom handled by the
// free lists).
func New(m *sim.Machine, nBuckets, capacity int) *Table {
	if nBuckets <= 0 || nBuckets&(nBuckets-1) != 0 {
		panic("hashtable: nBuckets must be a positive power of two")
	}
	return &Table{
		buckets:  m.Mem().AllocLines(nBuckets),
		nBuckets: nBuckets,
		mask:     uint64(nBuckets - 1),
		pool:     alloc.NewPool(m, nodeWords, capacity),
	}
}

// hash spreads keys multiplicatively (no divide instruction — a divide
// would abort every hardware transaction with CPS=FP, the very issue the
// paper's Java Hashtable experiment had to factor out).
func (t *Table) hash(key uint64) uint64 {
	key *= 0x9e3779b97f4a7c15
	return (key >> 40) & t.mask
}

func (t *Table) bucketAddr(key uint64) sim.Addr {
	return t.buckets + sim.Addr(t.hash(key))
}

// Lookup reports the value stored under key.
func (t *Table) Lookup(c core.Ctx, key uint64) (sim.Word, bool) {
	p := c.Load(t.bucketAddr(key))
	for {
		c.Branch(pcWalkNil, p != 0, true)
		if p == 0 {
			return 0, false
		}
		n := sim.Addr(p)
		k := c.Load(n + fKey)
		c.Branch(pcWalkKey, k == key, true)
		if k == key {
			return c.Load(n + fVal), true
		}
		p = c.Load(n + fNext)
	}
}

// insert links a pre-allocated, pre-initialized node under key; use the
// InsertOp wrapper for the full allocate-execute-reclaim cycle.
func (t *Table) insert(c core.Ctx, key uint64, node sim.Addr) bool {
	b := t.bucketAddr(key)
	head := c.Load(b)
	for p := head; ; {
		c.Branch(pcWalkNil, p != 0, true)
		if p == 0 {
			break
		}
		n := sim.Addr(p)
		k := c.Load(n + fKey)
		c.Branch(pcWalkKey, k == key, true)
		if k == key {
			return false // unsuccessful insert: modifies nothing
		}
		p = c.Load(n + fNext)
	}
	c.Store(node+fNext, head)
	c.Store(b, sim.Word(node))
	return true
}

// delete unlinks key's node, returning its address (0 if absent).
func (t *Table) delete(c core.Ctx, key uint64) sim.Addr {
	b := t.bucketAddr(key)
	prev := b
	prevIsBucket := true
	p := c.Load(b)
	for {
		c.Branch(pcWalkNil, p != 0, true)
		if p == 0 {
			return 0
		}
		n := sim.Addr(p)
		k := c.Load(n + fKey)
		c.Branch(pcWalkKey, k == key, true)
		if k == key {
			next := c.Load(n + fNext)
			if prevIsBucket {
				c.Store(prev, next)
			} else {
				c.Store(prev+fNext, next)
			}
			return n
		}
		prev = n
		prevIsBucket = false
		p = c.Load(n + fNext)
	}
}

// InsertOp performs a complete insert of key→val under system sys:
// allocate and initialize the node outside the transaction, link it inside,
// reclaim it if the key turned out to be present. It reports whether the
// insert modified the table.
func (t *Table) InsertOp(sys core.System, s *sim.Strand, key uint64, val sim.Word) bool {
	node := t.pool.Get(s)
	s.Store(node+fKey, key)
	s.Store(node+fVal, val)
	inserted := false
	sys.Atomic(s, func(c core.Ctx) {
		inserted = t.insert(c, key, node)
	})
	if !inserted {
		t.pool.Put(s, node)
	}
	return inserted
}

// DeleteOp performs a complete delete of key under system sys, reclaiming
// the node after the transaction commits. It reports whether a node was
// removed.
func (t *Table) DeleteOp(sys core.System, s *sim.Strand, key uint64) bool {
	var removed sim.Addr
	sys.Atomic(s, func(c core.Ctx) {
		removed = t.delete(c, key)
	})
	if removed != 0 {
		t.pool.Put(s, removed)
		return true
	}
	return false
}

// LookupOp performs a complete lookup under system sys.
func (t *Table) LookupOp(sys core.System, s *sim.Strand, key uint64) (sim.Word, bool) {
	var v sim.Word
	var ok bool
	sys.AtomicRO(s, func(c core.Ctx) {
		v, ok = t.Lookup(c, key)
	})
	return v, ok
}

// Session is a per-strand operation context: it pre-binds one closure per
// operation kind so the steady-state host cost of a complete operation is
// allocation-free (the XxxOp wrappers allocate a closure and escaping
// result boxes on every call). A Session performs the identical sequence of
// simulated operations; only the host-side plumbing differs. Sessions must
// only be used by the strand they were created for.
type Session struct {
	t   *Table
	sys core.System
	s   *sim.Strand

	key  uint64
	node sim.Addr

	v        sim.Word
	ok       bool
	inserted bool
	removed  sim.Addr

	lookupFn func(core.Ctx)
	insertFn func(core.Ctx)
	deleteFn func(core.Ctx)
}

// NewSession builds the reusable operation context for strand s under sys.
func (t *Table) NewSession(sys core.System, s *sim.Strand) *Session {
	ss := &Session{t: t, sys: sys, s: s}
	ss.lookupFn = func(c core.Ctx) { ss.v, ss.ok = ss.t.Lookup(c, ss.key) }
	ss.insertFn = func(c core.Ctx) { ss.inserted = ss.t.insert(c, ss.key, ss.node) }
	ss.deleteFn = func(c core.Ctx) { ss.removed = ss.t.delete(c, ss.key) }
	return ss
}

// Lookup is LookupOp through the session's reusable closure.
func (ss *Session) Lookup(key uint64) (sim.Word, bool) {
	ss.key = key
	ss.sys.AtomicRO(ss.s, ss.lookupFn)
	return ss.v, ss.ok
}

// Insert is InsertOp through the session's reusable closure.
func (ss *Session) Insert(key uint64, val sim.Word) bool {
	t, s := ss.t, ss.s
	node := t.pool.Get(s)
	s.Store(node+fKey, key)
	s.Store(node+fVal, val)
	ss.key, ss.node = key, node
	ss.inserted = false
	ss.sys.Atomic(s, ss.insertFn)
	if !ss.inserted {
		t.pool.Put(s, node)
	}
	return ss.inserted
}

// Delete is DeleteOp through the session's reusable closure.
func (ss *Session) Delete(key uint64) bool {
	ss.key = key
	ss.removed = 0
	ss.sys.Atomic(ss.s, ss.deleteFn)
	if ss.removed != 0 {
		ss.t.pool.Put(ss.s, ss.removed)
		return true
	}
	return false
}

// Prepopulate inserts keys directly (no cycles charged), for pre-run setup.
func (t *Table) Prepopulate(mem *sim.Memory, keys []uint64, val sim.Word) {
	for _, key := range keys {
		b := t.bucketAddr(key)
		n := t.pool.Prealloc(mem)
		mem.Poke(n+fKey, key)
		mem.Poke(n+fVal, val)
		mem.Poke(n+fNext, mem.Peek(b))
		mem.Poke(b, sim.Word(n))
	}
}

// Count walks the whole table directly (validation helper).
func (t *Table) Count(mem *sim.Memory) int {
	total := 0
	for i := 0; i < t.nBuckets; i++ {
		p := mem.Peek(t.buckets + sim.Addr(i))
		for p != 0 {
			total++
			p = mem.Peek(sim.Addr(p) + fNext)
		}
	}
	return total
}

// ContainsDirect checks membership directly (validation helper).
func (t *Table) ContainsDirect(mem *sim.Memory, key uint64) bool {
	p := mem.Peek(t.bucketAddr(key))
	for p != 0 {
		if mem.Peek(sim.Addr(p)+fKey) == key {
			return true
		}
		p = mem.Peek(sim.Addr(p) + fNext)
	}
	return false
}

// ---- Prepared-node interface (see rbtree's equivalent) ----

// AllocNode takes a node from the pool and initializes it outside any
// transaction.
func (t *Table) AllocNode(s *sim.Strand, key uint64, val sim.Word) sim.Addr {
	node := t.pool.Get(s)
	s.Store(node+fKey, key)
	s.Store(node+fVal, val)
	return node
}

// InsertNode links a prepared node inside the caller's atomic context.
func (t *Table) InsertNode(c core.Ctx, key uint64, node sim.Addr) bool {
	return t.insert(c, key, node)
}

// DeleteNode unlinks key inside the caller's atomic context, returning the
// freed node (0 if absent).
func (t *Table) DeleteNode(c core.Ctx, key uint64) sim.Addr {
	return t.delete(c, key)
}

// FreeNode returns a node to the pool (outside any transaction).
func (t *Table) FreeNode(s *sim.Strand, node sim.Addr) { t.pool.Put(s, node) }
