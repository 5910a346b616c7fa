// Package alloc provides the node allocator the transactional data
// structures share: a bump arena in simulated memory (the shared heap) plus
// per-strand free lists (thread-local caches). Allocation and reclamation
// happen *outside* transactions — the paper's workloads likewise malloc
// before and free after their atomic sections — so a node is private until
// a committed transaction links it and private again once a committed
// transaction has unlinked it.
package alloc

import "rocktm/internal/sim"

// Pool hands out fixed-size node blocks.
type Pool struct {
	nodeWords int
	cursor    sim.Addr     // shared bump pointer (a word in simulated memory)
	limit     sim.Addr     // end of the arena
	free      [][]sim.Addr // per-strand free lists (thread-local, Go-side)
}

// NewPool carves an arena of capacity nodes of nodeWords each (line-aligned
// if nodeWords is a multiple of the line size) out of m's memory.
func NewPool(m *sim.Machine, nodeWords, capacity int) *Pool {
	mem := m.Mem()
	base := mem.AllocLines(nodeWords * capacity)
	cursorAddr := mem.AllocLines(sim.WordsPerLine)
	mem.Poke(cursorAddr, sim.Word(base))
	return &Pool{
		nodeWords: nodeWords,
		cursor:    cursorAddr,
		limit:     base + sim.Addr(nodeWords*capacity),
		free:      make([][]sim.Addr, m.Config().Strands),
	}
}

// Get allocates a block for strand s: from its local free list if possible,
// otherwise by a fetch-add on the shared bump pointer. It panics when the
// arena is exhausted (experiments size pools up front).
func (p *Pool) Get(s *sim.Strand) sim.Addr {
	fl := p.free[s.ID()]
	if n := len(fl); n > 0 {
		a := fl[n-1]
		p.free[s.ID()] = fl[:n-1]
		s.Advance(2) // local free-list pop
		return a
	}
	next := p.cursorAdd(s)
	if next > sim.Word(p.limit) {
		// Arena exhausted: fall back to the global pool — in this model,
		// another strand's free list (real allocators rebalance magazines
		// the same way). Charged as a slower path.
		s.Advance(40)
		for t := range p.free {
			if n := len(p.free[t]); n > 0 {
				a := p.free[t][n-1]
				p.free[t] = p.free[t][:n-1]
				return a
			}
		}
		panic("alloc: pool exhausted")
	}
	return sim.Addr(next) - sim.Addr(p.nodeWords)
}

func (p *Pool) cursorAdd(s *sim.Strand) sim.Word {
	return s.Add(p.cursor, sim.Word(p.nodeWords))
}

// Put returns a block to strand s's local free list.
func (p *Pool) Put(s *sim.Strand, a sim.Addr) {
	if a == 0 {
		return
	}
	p.free[s.ID()] = append(p.free[s.ID()], a)
	s.Advance(2)
}

// Prealloc takes a block directly off the arena without strand accounting;
// it is for test-setup prepopulation (Poke-style, no cycles charged).
func (p *Pool) Prealloc(mem *sim.Memory) sim.Addr {
	cur := sim.Addr(mem.Peek(p.cursor))
	next := cur + sim.Addr(p.nodeWords)
	if next > p.limit {
		panic("alloc: pool exhausted during prepopulation")
	}
	mem.Poke(p.cursor, sim.Word(next))
	return cur
}
