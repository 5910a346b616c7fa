// Package dcas implements the double compare-and-swap of Section 4 — a
// two-location generalization of CAS built from a tiny best-effort
// hardware transaction — and the two sorted-list set implementations the
// paper compares: one whose removal path uses DCAS, and a hand-crafted
// lock-free list in the style of java.util.concurrent's (Harris–Michael
// marked pointers). The paper's finding is that the DCAS versions match
// the carefully hand-crafted originals while being far simpler.
package dcas

import (
	"rocktm/internal/alloc"
	"rocktm/internal/core"
	"rocktm/internal/locktm"
	"rocktm/internal/obs"
	"rocktm/internal/rock"
	"rocktm/internal/sim"
)

// DCAS performs double compare-and-swap operations. Hardware transactions
// provide the fast path; a lock (elided by that very fast path, so the two
// compose correctly) guarantees progress.
type DCAS struct {
	lock  *locktm.SpinLock
	stats *core.Stats
	// MaxAttempts is the number of hardware tries before the lock fallback.
	MaxAttempts int
}

// New builds a DCAS provider.
func New(m *sim.Machine) *DCAS {
	return &DCAS{lock: locktm.NewSpinLock(m.Mem()), stats: core.NewStats(), MaxAttempts: 12}
}

// Stats returns cumulative attempt statistics.
func (d *DCAS) Stats() *core.Stats { return d.stats }

// Do atomically checks *a1==o1 && *a2==o2 and, if both hold, stores n1 and
// n2. It reports whether the swap happened.
func (d *DCAS) Do(s *sim.Strand, a1 sim.Addr, o1, n1 sim.Word, a2 sim.Addr, o2, n2 sim.Word) bool {
	lockAddr := d.lock.Addr()
	d.stats.HWBlocks++
	for attempt := 0; attempt < d.MaxAttempts; attempt++ {
		d.stats.HWAttempts++
		swapped := false
		ok, c := rock.Try(s, func(t rock.Txn) {
			if t.Load(lockAddr) != 0 {
				t.Abort()
			}
			v1 := t.Load(a1)
			v2 := t.Load(a2)
			if v1 != o1 || v2 != o2 {
				swapped = false
				return
			}
			t.Store(a1, n1)
			t.Store(a2, n2)
			swapped = true
		})
		if ok {
			d.stats.HWCommits++
			d.stats.Ops++
			return swapped
		}
		d.stats.RecordFailure(c)
		core.Backoff(s, attempt)
	}
	// Guaranteed-progress fallback under the (elided) lock.
	s.TraceEvent(obs.EvFallback, uint64(lockAddr))
	d.lock.Acquire(s)
	d.stats.LockAcquires++
	d.stats.Ops++
	swapped := false
	if s.Load(a1) == o1 && s.Load(a2) == o2 {
		s.Store(a1, n1)
		s.Store(a2, n2)
		swapped = true
	}
	d.lock.Release(s)
	return swapped
}

// ---- Sorted list sets ----

// Node layout for both lists. The next word of the Harris–Michael list
// carries the logical-deletion mark in its low bit (node addresses are
// line-aligned, so low bits are free).
const (
	fKey      = 0
	fNext     = 1
	nodeWords = sim.WordsPerLine

	deadNext = ^sim.Word(0) // poisons the next pointer of a DCAS-removed node
)

var pcListWalk = core.PC("dcas.list.walk")

// DCASList is a sorted singly linked set whose remove uses DCAS to unlink
// the node and poison its next pointer in one atomic step — the property
// that makes traversals safe without marked-pointer machinery.
type DCASList struct {
	head sim.Addr // head node (sentinel with key 0 reserved)
	pool *alloc.Pool
	d    *DCAS
}

// NewDCASList builds an empty set with the given node capacity.
func NewDCASList(m *sim.Machine, d *DCAS, capacity int) *DCASList {
	l := &DCASList{pool: alloc.NewPool(m, nodeWords, capacity+1), d: d}
	l.head = l.pool.Prealloc(m.Mem())
	m.Mem().Poke(l.head+fKey, 0)
	m.Mem().Poke(l.head+fNext, 0)
	return l
}

// search returns (pred, curr) such that pred.key < key <= curr.key, with
// curr==0 at the tail; it restarts on poisoned links.
func (l *DCASList) search(s *sim.Strand, key uint64) (sim.Addr, sim.Word) {
retry:
	pred := l.head
	curr := s.Load(pred + fNext)
	for {
		s.Branch(pcListWalk, curr != 0)
		if curr == 0 || curr == deadNext {
			if curr == deadNext {
				goto retry
			}
			return pred, 0
		}
		ck := s.Load(sim.Addr(curr) + fKey)
		if ck >= key {
			return pred, curr
		}
		pred = sim.Addr(curr)
		curr = s.Load(pred + fNext)
	}
}

// Insert adds key, reporting whether it was absent.
func (l *DCASList) Insert(s *sim.Strand, key uint64) bool {
	for {
		pred, curr := l.search(s, key)
		if curr != 0 && s.Load(sim.Addr(curr)+fKey) == key {
			return false
		}
		node := l.pool.Get(s)
		s.Store(node+fKey, key)
		s.Store(node+fNext, curr)
		if _, ok := s.CAS(pred+fNext, curr, sim.Word(node)); ok {
			return true
		}
		l.pool.Put(s, node)
	}
}

// Remove deletes key, reporting whether it was present. The unlink and the
// poisoning of the removed node's next pointer happen in one DCAS.
func (l *DCASList) Remove(s *sim.Strand, key uint64) bool {
	for {
		pred, curr := l.search(s, key)
		if curr == 0 || s.Load(sim.Addr(curr)+fKey) != key {
			return false
		}
		next := s.Load(sim.Addr(curr) + fNext)
		if next == deadNext {
			continue // someone else is removing it; re-examine
		}
		if l.d.Do(s, pred+fNext, curr, next, sim.Addr(curr)+fNext, next, deadNext) {
			return true
		}
	}
}

// Contains reports membership.
func (l *DCASList) Contains(s *sim.Strand, key uint64) bool {
	_, curr := l.search(s, key)
	return curr != 0 && s.Load(sim.Addr(curr)+fKey) == key
}

// CountDirect walks the list with no cycle accounting (validation helper).
func (l *DCASList) CountDirect(mem *sim.Memory) int {
	n := 0
	for p := mem.Peek(l.head + fNext); p != 0; p = mem.Peek(sim.Addr(p) + fNext) {
		n++
	}
	return n
}

// HMList is the hand-crafted baseline: a Harris–Michael lock-free sorted
// list with logical-deletion marks in the next pointers, the design
// java.util.concurrent's sets are built from.
type HMList struct {
	head sim.Addr
	pool *alloc.Pool
}

// NewHMList builds an empty set with the given node capacity.
func NewHMList(m *sim.Machine, capacity int) *HMList {
	l := &HMList{pool: alloc.NewPool(m, nodeWords, capacity+1)}
	l.head = l.pool.Prealloc(m.Mem())
	m.Mem().Poke(l.head+fKey, 0)
	m.Mem().Poke(l.head+fNext, 0)
	return l
}

const markBit sim.Word = 1

func marked(w sim.Word) bool        { return w&markBit != 0 }
func clearMark(w sim.Word) sim.Word { return w &^ markBit }

// search finds (pred, curr) with pred.key < key <= curr.key, physically
// unlinking marked nodes it passes (the Michael helping rule).
func (l *HMList) search(s *sim.Strand, key uint64) (sim.Addr, sim.Word) {
retry:
	pred := l.head
	curr := clearMark(s.Load(pred + fNext))
	for {
		s.Branch(pcListWalk, curr != 0)
		if curr == 0 {
			return pred, 0
		}
		next := s.Load(sim.Addr(curr) + fNext)
		if marked(next) {
			// curr is logically deleted: help unlink it.
			if _, ok := s.CAS(pred+fNext, curr, clearMark(next)); !ok {
				goto retry
			}
			curr = clearMark(next)
			continue
		}
		ck := s.Load(sim.Addr(curr) + fKey)
		if ck >= key {
			return pred, curr
		}
		pred = sim.Addr(curr)
		curr = clearMark(next)
	}
}

// Insert adds key, reporting whether it was absent.
func (l *HMList) Insert(s *sim.Strand, key uint64) bool {
	for {
		pred, curr := l.search(s, key)
		if curr != 0 && s.Load(sim.Addr(curr)+fKey) == key {
			return false
		}
		node := l.pool.Get(s)
		s.Store(node+fKey, key)
		s.Store(node+fNext, curr)
		if _, ok := s.CAS(pred+fNext, curr, sim.Word(node)); ok {
			return true
		}
		l.pool.Put(s, node)
	}
}

// Remove deletes key, reporting whether it was present: first mark, then
// unlink.
func (l *HMList) Remove(s *sim.Strand, key uint64) bool {
	for {
		pred, curr := l.search(s, key)
		if curr == 0 || s.Load(sim.Addr(curr)+fKey) != key {
			return false
		}
		next := s.Load(sim.Addr(curr) + fNext)
		if marked(next) {
			continue
		}
		if _, ok := s.CAS(sim.Addr(curr)+fNext, next, next|markBit); !ok {
			continue
		}
		// Physical unlink; if it fails a later search will help.
		s.CAS(pred+fNext, curr, next)
		return true
	}
}

// Contains reports membership.
func (l *HMList) Contains(s *sim.Strand, key uint64) bool {
	_, curr := l.search(s, key)
	return curr != 0 && s.Load(sim.Addr(curr)+fKey) == key
}

// CountDirect counts unmarked nodes (validation helper).
func (l *HMList) CountDirect(mem *sim.Memory) int {
	n := 0
	for p := clearMark(mem.Peek(l.head + fNext)); p != 0; {
		next := mem.Peek(sim.Addr(p) + fNext)
		if !marked(next) {
			n++
		}
		p = clearMark(next)
	}
	return n
}
