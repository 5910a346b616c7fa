// Package rbtree implements the iterative red-black tree of Section 6 —
// iterative precisely because recursive function calls (save/restore) abort
// Rock transactions with CPS=INST. Compared with the hash table it is the
// hard case for best-effort HTM: transactions are longer, have chained data
// dependencies (each child pointer feeds the next load), and traversal
// branches confound the branch predictor, all of which the simulator
// faithfully punishes. Operations are written once against core.Ctx; the
// same kernel runs under every synchronization system and, through
// core.Setup, for uncharged prepopulation.
package rbtree

import (
	"rocktm/internal/alloc"
	"rocktm/internal/core"
	"rocktm/internal/sim"
)

// Node layout (one cache line per node).
const (
	fKey      = 0
	fVal      = 1
	fLeft     = 2
	fRight    = 3
	fParent   = 4
	fColor    = 5 // 1 = red, 0 = black
	nodeWords = sim.WordsPerLine
)

// Branch sites.
var (
	pcWalkNil    = core.PC("rbtree.walk.nil")
	pcWalkDir    = core.PC("rbtree.walk.dir")
	pcWalkEq     = core.PC("rbtree.walk.eq")
	pcFixRed     = core.PC("rbtree.fix.red")
	pcFixSide    = core.PC("rbtree.fix.side")
	pcFixUncle   = core.PC("rbtree.fix.uncle")
	pcDelSide    = core.PC("rbtree.del.side")
	pcDelRedSib  = core.PC("rbtree.del.redsib")
	pcDelNephews = core.PC("rbtree.del.nephews")
	pcMinWalk    = core.PC("rbtree.min.walk")
)

// Tree is a red-black tree in simulated memory.
type Tree struct {
	rootA sim.Addr // word holding the root pointer
	pool  *alloc.Pool
}

// New builds a tree with capacity for the given number of resident nodes.
func New(m *sim.Machine, capacity int) *Tree {
	return &Tree{
		rootA: m.Mem().AllocLines(sim.WordsPerLine),
		pool:  alloc.NewPool(m, nodeWords, capacity),
	}
}

func isRed(c core.Ctx, n sim.Word) bool {
	return n != 0 && c.Load(sim.Addr(n)+fColor) != 0
}

func setColor(c core.Ctx, n sim.Word, red bool) {
	v := sim.Word(0)
	if red {
		v = 1
	}
	c.Store(sim.Addr(n)+fColor, v)
}

// Lookup reports the value stored under key.
func (t *Tree) Lookup(c core.Ctx, key uint64) (sim.Word, bool) {
	x := c.Load(t.rootA)
	for {
		c.Branch(pcWalkNil, x != 0, true)
		if x == 0 {
			return 0, false
		}
		k := c.Load(sim.Addr(x) + fKey)
		c.Branch(pcWalkEq, k == key, true)
		if k == key {
			return c.Load(sim.Addr(x) + fVal), true
		}
		goLeft := key < k
		c.Branch(pcWalkDir, goLeft, true)
		if goLeft {
			x = c.Load(sim.Addr(x) + fLeft)
		} else {
			x = c.Load(sim.Addr(x) + fRight)
		}
	}
}

// rotateLeft rotates x's subtree left, updating the root word if needed.
func (t *Tree) rotateLeft(c core.Ctx, x sim.Word) {
	y := c.Load(sim.Addr(x) + fRight)
	yl := c.Load(sim.Addr(y) + fLeft)
	c.Store(sim.Addr(x)+fRight, yl)
	if yl != 0 {
		c.Store(sim.Addr(yl)+fParent, x)
	}
	xp := c.Load(sim.Addr(x) + fParent)
	c.Store(sim.Addr(y)+fParent, xp)
	switch {
	case xp == 0:
		c.Store(t.rootA, y)
	case c.Load(sim.Addr(xp)+fLeft) == x:
		c.Store(sim.Addr(xp)+fLeft, y)
	default:
		c.Store(sim.Addr(xp)+fRight, y)
	}
	c.Store(sim.Addr(y)+fLeft, x)
	c.Store(sim.Addr(x)+fParent, y)
}

// rotateRight mirrors rotateLeft.
func (t *Tree) rotateRight(c core.Ctx, x sim.Word) {
	y := c.Load(sim.Addr(x) + fLeft)
	yr := c.Load(sim.Addr(y) + fRight)
	c.Store(sim.Addr(x)+fLeft, yr)
	if yr != 0 {
		c.Store(sim.Addr(yr)+fParent, x)
	}
	xp := c.Load(sim.Addr(x) + fParent)
	c.Store(sim.Addr(y)+fParent, xp)
	switch {
	case xp == 0:
		c.Store(t.rootA, y)
	case c.Load(sim.Addr(xp)+fRight) == x:
		c.Store(sim.Addr(xp)+fRight, y)
	default:
		c.Store(sim.Addr(xp)+fLeft, y)
	}
	c.Store(sim.Addr(y)+fRight, x)
	c.Store(sim.Addr(x)+fParent, y)
}

// insert links a pre-initialized node (left/right nil, red) under key,
// returning false if the key already exists (nothing modified).
func (t *Tree) insert(c core.Ctx, key uint64, node sim.Addr) bool {
	var y sim.Word
	yLeft := false
	x := c.Load(t.rootA)
	for x != 0 {
		c.Branch(pcWalkNil, true, true)
		y = x
		k := c.Load(sim.Addr(x) + fKey)
		c.Branch(pcWalkEq, k == key, true)
		if k == key {
			return false
		}
		yLeft = key < k
		c.Branch(pcWalkDir, yLeft, true)
		if yLeft {
			x = c.Load(sim.Addr(x) + fLeft)
		} else {
			x = c.Load(sim.Addr(x) + fRight)
		}
	}
	c.Store(node+fParent, y)
	switch {
	case y == 0:
		c.Store(t.rootA, sim.Word(node))
	case yLeft:
		c.Store(sim.Addr(y)+fLeft, sim.Word(node))
	default:
		c.Store(sim.Addr(y)+fRight, sim.Word(node))
	}
	t.insertFixup(c, sim.Word(node))
	return true
}

// insertFixup restores the red-black invariants after an insertion;
// rotations occasionally propagate to the root, producing the longer
// store-heavy transactions Section 6 describes.
func (t *Tree) insertFixup(c core.Ctx, z sim.Word) {
	for {
		p := c.Load(sim.Addr(z) + fParent)
		pRed := isRed(c, p)
		c.Branch(pcFixRed, pRed, true)
		if !pRed {
			break
		}
		g := c.Load(sim.Addr(p) + fParent) // exists: the root is black
		pIsLeft := c.Load(sim.Addr(g)+fLeft) == p
		c.Branch(pcFixSide, pIsLeft, true)
		if pIsLeft {
			u := c.Load(sim.Addr(g) + fRight)
			uRed := isRed(c, u)
			c.Branch(pcFixUncle, uRed, true)
			if uRed {
				setColor(c, p, false)
				setColor(c, u, false)
				setColor(c, g, true)
				z = g
				continue
			}
			if c.Load(sim.Addr(p)+fRight) == z {
				z = p
				t.rotateLeft(c, z)
				p = c.Load(sim.Addr(z) + fParent)
				g = c.Load(sim.Addr(p) + fParent)
			}
			setColor(c, p, false)
			setColor(c, g, true)
			t.rotateRight(c, g)
		} else {
			u := c.Load(sim.Addr(g) + fLeft)
			uRed := isRed(c, u)
			c.Branch(pcFixUncle, uRed, true)
			if uRed {
				setColor(c, p, false)
				setColor(c, u, false)
				setColor(c, g, true)
				z = g
				continue
			}
			if c.Load(sim.Addr(p)+fLeft) == z {
				z = p
				t.rotateRight(c, z)
				p = c.Load(sim.Addr(z) + fParent)
				g = c.Load(sim.Addr(p) + fParent)
			}
			setColor(c, p, false)
			setColor(c, g, true)
			t.rotateLeft(c, g)
		}
	}
	root := c.Load(t.rootA)
	setColor(c, root, false)
}

// delete unlinks key's node, returning the address of the node whose
// storage became free (0 if the key is absent). The classic copy-out
// deletion is used: when the doomed node has two children its successor's
// key and value are copied in and the successor is spliced out.
func (t *Tree) delete(c core.Ctx, key uint64) sim.Addr {
	z := c.Load(t.rootA)
	for {
		c.Branch(pcWalkNil, z != 0, true)
		if z == 0 {
			return 0
		}
		k := c.Load(sim.Addr(z) + fKey)
		c.Branch(pcWalkEq, k == key, true)
		if k == key {
			break
		}
		goLeft := key < k
		c.Branch(pcWalkDir, goLeft, true)
		if goLeft {
			z = c.Load(sim.Addr(z) + fLeft)
		} else {
			z = c.Load(sim.Addr(z) + fRight)
		}
	}
	// y is the node to splice out: z itself, or its in-order successor.
	y := z
	if c.Load(sim.Addr(z)+fLeft) != 0 && c.Load(sim.Addr(z)+fRight) != 0 {
		y = c.Load(sim.Addr(z) + fRight)
		for {
			l := c.Load(sim.Addr(y) + fLeft)
			c.Branch(pcMinWalk, l != 0, true)
			if l == 0 {
				break
			}
			y = l
		}
	}
	// x is y's only child (possibly nil); xp its parent after the splice.
	x := c.Load(sim.Addr(y) + fLeft)
	if x == 0 {
		x = c.Load(sim.Addr(y) + fRight)
	}
	xp := c.Load(sim.Addr(y) + fParent)
	if x != 0 {
		c.Store(sim.Addr(x)+fParent, xp)
	}
	switch {
	case xp == 0:
		c.Store(t.rootA, x)
	case c.Load(sim.Addr(xp)+fLeft) == y:
		c.Store(sim.Addr(xp)+fLeft, x)
	default:
		c.Store(sim.Addr(xp)+fRight, x)
	}
	if y != z {
		c.Store(sim.Addr(z)+fKey, c.Load(sim.Addr(y)+fKey))
		c.Store(sim.Addr(z)+fVal, c.Load(sim.Addr(y)+fVal))
	}
	if !isRed(c, y) {
		t.deleteFixup(c, x, xp)
	}
	return sim.Addr(y)
}

// deleteFixup restores the invariants after removing a black node; x (the
// doubly-black position) may be nil, so its parent is tracked explicitly
// rather than through a mutable shared sentinel, which would make every
// pair of concurrent deletes conflict.
func (t *Tree) deleteFixup(c core.Ctx, x, xp sim.Word) {
	for x != c.Load(t.rootA) && !isRed(c, x) {
		if xp == 0 {
			break
		}
		xIsLeft := c.Load(sim.Addr(xp)+fLeft) == x
		c.Branch(pcDelSide, xIsLeft, true)
		if xIsLeft {
			w := c.Load(sim.Addr(xp) + fRight)
			wRed := isRed(c, w)
			c.Branch(pcDelRedSib, wRed, true)
			if wRed {
				setColor(c, w, false)
				setColor(c, xp, true)
				t.rotateLeft(c, xp)
				w = c.Load(sim.Addr(xp) + fRight)
			}
			wl := c.Load(sim.Addr(w) + fLeft)
			wr := c.Load(sim.Addr(w) + fRight)
			bothBlack := !isRed(c, wl) && !isRed(c, wr)
			c.Branch(pcDelNephews, bothBlack, true)
			if bothBlack {
				setColor(c, w, true)
				x = xp
				xp = c.Load(sim.Addr(x) + fParent)
				continue
			}
			if !isRed(c, wr) {
				setColor(c, wl, false)
				setColor(c, w, true)
				t.rotateRight(c, w)
				w = c.Load(sim.Addr(xp) + fRight)
				wr = c.Load(sim.Addr(w) + fRight)
			}
			setColor(c, w, isRed(c, xp))
			setColor(c, xp, false)
			if wr != 0 {
				setColor(c, wr, false)
			}
			t.rotateLeft(c, xp)
			x = c.Load(t.rootA)
			xp = 0
		} else {
			w := c.Load(sim.Addr(xp) + fLeft)
			wRed := isRed(c, w)
			c.Branch(pcDelRedSib, wRed, true)
			if wRed {
				setColor(c, w, false)
				setColor(c, xp, true)
				t.rotateRight(c, xp)
				w = c.Load(sim.Addr(xp) + fLeft)
			}
			wl := c.Load(sim.Addr(w) + fLeft)
			wr := c.Load(sim.Addr(w) + fRight)
			bothBlack := !isRed(c, wl) && !isRed(c, wr)
			c.Branch(pcDelNephews, bothBlack, true)
			if bothBlack {
				setColor(c, w, true)
				x = xp
				xp = c.Load(sim.Addr(x) + fParent)
				continue
			}
			if !isRed(c, wl) {
				setColor(c, wr, false)
				setColor(c, w, true)
				t.rotateLeft(c, w)
				w = c.Load(sim.Addr(xp) + fLeft)
				wl = c.Load(sim.Addr(w) + fLeft)
			}
			setColor(c, w, isRed(c, xp))
			setColor(c, xp, false)
			if wl != 0 {
				setColor(c, wl, false)
			}
			t.rotateRight(c, xp)
			x = c.Load(t.rootA)
			xp = 0
		}
	}
	if x != 0 {
		setColor(c, x, false)
	}
}

// InsertOp performs a complete insert under system sys (allocate outside,
// link inside, reclaim on unsuccessful insert).
func (t *Tree) InsertOp(sys core.System, s *sim.Strand, key uint64, val sim.Word) bool {
	node := t.pool.Get(s)
	s.Store(node+fKey, key)
	s.Store(node+fVal, val)
	s.Store(node+fLeft, 0)
	s.Store(node+fRight, 0)
	s.Store(node+fColor, 1)
	inserted := false
	sys.Atomic(s, func(c core.Ctx) {
		inserted = t.insert(c, key, node)
	})
	if !inserted {
		t.pool.Put(s, node)
	}
	return inserted
}

// DeleteOp performs a complete delete under system sys.
func (t *Tree) DeleteOp(sys core.System, s *sim.Strand, key uint64) bool {
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
func (t *Tree) LookupOp(sys core.System, s *sim.Strand, key uint64) (sim.Word, bool) {
	var v sim.Word
	var ok bool
	sys.AtomicRO(s, func(c core.Ctx) {
		v, ok = t.Lookup(c, key)
	})
	return v, ok
}

// Session is a per-strand operation context: it pre-binds one closure per
// operation kind so the steady-state host cost of a complete operation is
// allocation-free. The XxxOp wrappers above allocate a fresh closure (plus
// escaping result boxes) on every call, which at millions of operations per
// experiment dominated the host allocation profile. A Session performs the
// *identical* sequence of simulated operations; only the host-side plumbing
// differs. Sessions must only be used by the strand they were created for.
type Session struct {
	t   *Tree
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
func (t *Tree) NewSession(sys core.System, s *sim.Strand) *Session {
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
	s.Store(node+fLeft, 0)
	s.Store(node+fRight, 0)
	s.Store(node+fColor, 1)
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

// Prepopulate inserts keys directly with no cycle accounting (test setup).
func (t *Tree) Prepopulate(mem *sim.Memory, keys []uint64, val sim.Word) {
	c := core.Setup{Mem: mem}
	for _, key := range keys {
		node := t.pool.Prealloc(mem)
		mem.Poke(node+fKey, key)
		mem.Poke(node+fVal, val)
		mem.Poke(node+fLeft, 0)
		mem.Poke(node+fRight, 0)
		mem.Poke(node+fColor, 1)
		if !t.insert(c, key, node) {
			panic("rbtree: duplicate key in prepopulation")
		}
	}
}

// InsertDirect inserts with no cycle accounting (setup/validation helper).
// It reports whether the key was new.
func (t *Tree) InsertDirect(mem *sim.Memory, key uint64, val sim.Word) bool {
	c := core.Setup{Mem: mem}
	node := t.pool.Prealloc(mem)
	mem.Poke(node+fKey, key)
	mem.Poke(node+fVal, val)
	mem.Poke(node+fColor, 1)
	return t.insert(c, key, node)
}

// DeleteDirect deletes with no cycle accounting (validation helper).
func (t *Tree) DeleteDirect(mem *sim.Memory, key uint64) bool {
	return t.delete(core.Setup{Mem: mem}, key) != 0
}

// LookupDirect looks up with no cycle accounting (validation helper).
func (t *Tree) LookupDirect(mem *sim.Memory, key uint64) (sim.Word, bool) {
	return t.Lookup(core.Setup{Mem: mem}, key)
}

// CheckInvariants walks the tree directly and verifies the binary-search
// order and the red-black properties (root black, no red-red edge, equal
// black heights, consistent parent pointers). It returns the number of
// nodes, panicking on any violation; tests recover the message.
func (t *Tree) CheckInvariants(mem *sim.Memory) int {
	root := mem.Peek(t.rootA)
	if root == 0 {
		return 0
	}
	if mem.Peek(sim.Addr(root)+fColor) != 0 {
		panic("rbtree: red root")
	}
	count := 0
	var walk func(n sim.Word, min, max uint64, parent sim.Word) int
	walk = func(n sim.Word, min, max uint64, parent sim.Word) int {
		if n == 0 {
			return 1
		}
		count++
		a := sim.Addr(n)
		k := mem.Peek(a + fKey)
		if k < min || k > max {
			panic("rbtree: BST order violated")
		}
		if mem.Peek(a+fParent) != parent {
			panic("rbtree: bad parent pointer")
		}
		red := mem.Peek(a+fColor) != 0
		l := mem.Peek(a + fLeft)
		r := mem.Peek(a + fRight)
		if red {
			if l != 0 && mem.Peek(sim.Addr(l)+fColor) != 0 {
				panic("rbtree: red-red edge (left)")
			}
			if r != 0 && mem.Peek(sim.Addr(r)+fColor) != 0 {
				panic("rbtree: red-red edge (right)")
			}
		}
		var lmax, rmin uint64
		if k > 0 {
			lmax = k - 1
		}
		rmin = k + 1
		bl := walk(l, min, lmax, n)
		br := walk(r, rmin, max, n)
		if bl != br {
			panic("rbtree: unequal black heights")
		}
		if !red {
			bl++
		}
		return bl
	}
	walk(root, 0, ^uint64(0), 0)
	return count
}

// ---- Prepared-node interface (for callers that manage the allocate /
// execute / reclaim cycle themselves, e.g. the Java-collection facades
// whose atomic section is a monitor body) ----

// AllocNode takes a node from the pool and initializes it outside any
// transaction.
func (t *Tree) AllocNode(s *sim.Strand, key uint64, val sim.Word) sim.Addr {
	node := t.pool.Get(s)
	s.Store(node+fKey, key)
	s.Store(node+fVal, val)
	s.Store(node+fLeft, 0)
	s.Store(node+fRight, 0)
	s.Store(node+fColor, 1)
	return node
}

// InsertNode links a prepared node under key inside the caller's atomic
// context, reporting whether the key was absent.
func (t *Tree) InsertNode(c core.Ctx, key uint64, node sim.Addr) bool {
	return t.insert(c, key, node)
}

// DeleteNode unlinks key inside the caller's atomic context, returning the
// freed node (0 if absent); the caller reclaims it after committing.
func (t *Tree) DeleteNode(c core.Ctx, key uint64) sim.Addr {
	return t.delete(c, key)
}

// FreeNode returns a node to the pool (outside any transaction).
func (t *Tree) FreeNode(s *sim.Strand, node sim.Addr) { t.pool.Put(s, node) }
