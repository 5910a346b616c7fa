package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestMemoryMatchesReference is a seeded differential test of the
// frame-backed memory. It drives random Alloc, Poke, runs of Poke, Peek and
// Remap calls between runs, and random Load, Store, CAS, Add and
// transactional sequences inside them, on 2–4 strands under every named
// design point, and checks every value read against a flat reference map of
// committed values. Each round also makes the first touch of two fresh
// pages transactional: a TxLoad, and a TxStore retried after its
// micro-DTLB miss. Under the committer-wins and timestamp designs that
// touch is the pre-fill arbitration probe. After each run it Peeks every
// mapped word, and the words at Size()-1, Size() and beyond, and checks
// that Peek backed no frame.
func TestMemoryMatchesReference(t *testing.T) {
	for _, design := range DesignPointNames() {
		for strands := 2; strands <= 4; strands++ {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/strands=%d/seed=%d", design, strands, seed), func(t *testing.T) {
					newMemoryDiff(t, design, strands, seed).check()
				})
			}
		}
	}
}

// memoryDiff is one differential run: a machine, the reference map of its
// committed memory, and the host RNG that drives the set-up calls.
type memoryDiff struct {
	t      *testing.T
	m      *Machine
	mem    *Memory
	ref    map[Addr]Word
	rng    *rand.Rand
	mapped []int32 // pages the strands may touch this round
	hot    Addr    // a few lines every strand contends on
}

func newMemoryDiff(t *testing.T, design string, strands int, seed uint64) *memoryDiff {
	cfg := DefaultConfig(strands)
	cfg.MemWords = 64 * PageWords
	cfg.MaxCycles = 1 << 40
	cfg.Seed = seed
	cfg.HTM = DesignPoint(design)
	m := New(cfg)
	t.Cleanup(m.Recycle)
	return &memoryDiff{
		t:   t,
		m:   m,
		mem: m.Mem(),
		ref: map[Addr]Word{},
		rng: rand.New(rand.NewPCG(seed, uint64(strands))),
	}
}

func (d *memoryDiff) check() {
	d.hot = d.mem.AllocLines(4 * WordsPerLine)
	for round := 0; round < 6 && !d.t.Failed(); round++ {
		d.setup()
		d.run()
		d.peekAll()
	}
}

// backed counts the pages that have a frame.
func (d *memoryDiff) backed() int {
	n := 0
	for _, f := range d.mem.frames {
		if f != nil {
			n++
		}
	}
	return n
}

// peek checks one Peek against the reference.
func (d *memoryDiff) peek(a Addr) {
	if got, want := d.mem.Peek(a), d.ref[a]; got != want {
		d.t.Errorf("Peek(%d) = %#x, reference %#x", a, got, want)
	}
}

// randAddr returns a word on one of this round's mapped pages, half the
// time on the contended hot lines.
func (d *memoryDiff) randAddr(r func(int) int) Addr {
	if r(2) == 0 {
		return d.hot + Addr(r(4*WordsPerLine))
	}
	p := d.mapped[r(len(d.mapped))]
	return Addr(p)*PageWords + Addr(r(PageWords))
}

// setup makes the host-side calls of one round: allocations, pokes,
// checked peeks and the occasional remap. Its allocations stop 24 pages
// short of the end, which leaves room for every round's fresh pages and
// keeps Size()-1 on a page that is never allocated.
func (d *memoryDiff) setup() {
	for i := 0; i < 12; i++ {
		switch d.rng.IntN(5) {
		case 0:
			n := 1 + d.rng.IntN(3*PageWords)
			align := []int{0, 1, WordsPerLine, PageWords}[d.rng.IntN(4)]
			if int(d.mem.next)+n+PageWords <= d.mem.Size()-24*PageWords {
				d.mem.Alloc(n, align)
			}
		case 1:
			if len(d.mapped) > 0 {
				a, w := d.randAddr(d.rng.IntN), d.rng.Uint64()
				d.mem.Poke(a, w)
				d.ref[a] = w
			}
		case 2:
			if len(d.mapped) > 0 {
				// A run of Pokes, up to two pages from a mapped page's
				// start: the run may cross into the next page, which is
				// mapped too unless a is on the last one.
				p := d.mapped[d.rng.IntN(len(d.mapped))]
				a := Addr(p)*PageWords + Addr(d.rng.IntN(PageWords))
				end := Addr(d.mapped[len(d.mapped)-1]+1) * PageWords
				n := min(1+d.rng.IntN(2*PageWords), int(end-a))
				for j := 0; j < n; j++ {
					w := d.rng.Uint64()
					d.mem.Poke(a+Addr(j), w)
					d.ref[a+Addr(j)] = w
				}
			}
		case 3:
			d.peek(Addr(d.rng.IntN(d.mem.Size() + PageWords)))
		case 4:
			if len(d.mapped) > 0 && d.rng.IntN(3) == 0 {
				p := d.mapped[d.rng.IntN(len(d.mapped))]
				d.mem.Remap(Addr(p)*PageWords, 1+d.rng.IntN(PageWords))
			}
		}
		d.mapped = d.mapped[:0]
		for p := range d.mem.pages {
			if d.mem.pages[p].mapped {
				d.mapped = append(d.mapped, int32(p))
			}
		}
	}
}

// pendingWrite is one transactional store of the strand's attempt in
// flight, applied to the reference only if the attempt commits.
type pendingWrite struct {
	a Addr
	w Word
}

// run drives one Machine.Run. The baton lets one strand execute at a
// time, so the order in which the bodies update the reference is the
// simulated order of their effects.
func (d *memoryDiff) run() {
	fresh := d.mem.Alloc(2*PageWords, PageWords)
	loadPage, storePage := PageOf(fresh), PageOf(fresh)+1
	if d.mem.frames[loadPage] != nil || d.mem.frames[storePage] != nil {
		d.t.Fatal("Alloc backed a frame")
	}
	d.m.Run(func(s *Strand) {
		if s.ID() == 0 {
			d.firstTouches(s, fresh)
		}
		var pending []pendingWrite
		for i := 0; i < 120; i++ {
			if s.RandIntn(3) == 0 {
				pending = d.txn(s, pending[:0])
				continue
			}
			a := d.randAddr(s.RandIntn)
			switch s.RandIntn(4) {
			case 0:
				if got := s.Load(a); got != d.ref[a] {
					d.t.Errorf("strand %d: Load(%d) = %#x, reference %#x", s.ID(), a, got, d.ref[a])
				}
			case 1:
				w := s.Rand()
				s.Store(a, w)
				d.ref[a] = w
			case 2:
				old := d.ref[a]
				if s.RandIntn(2) == 0 {
					old++
				}
				w := s.Rand()
				cur, ok := s.CAS(a, old, w)
				if cur != d.ref[a] || ok != (old == d.ref[a]) {
					d.t.Errorf("strand %d: CAS(%d) = (%#x, %v), reference %#x", s.ID(), a, cur, ok, d.ref[a])
				}
				if ok {
					d.ref[a] = w
				}
			case 3:
				delta := Word(s.RandIntn(100))
				got := s.Add(a, delta)
				d.ref[a] += delta
				if got != d.ref[a] {
					d.t.Errorf("strand %d: Add(%d) = %#x, reference %#x", s.ID(), a, got, d.ref[a])
				}
			}
		}
	})
	if d.mem.frames[loadPage] == nil || d.mem.frames[storePage] == nil {
		d.t.Error("a transactional first touch backed no frame")
	}
}

// firstTouches makes the first touch of each fresh page transactional. A
// TxLoad walks the page table and, under committer-wins or timestamp
// resolution, backs the frame in its arbitration probe before the fill. A
// TxStore first misses the micro-DTLB and aborts with ST, backing nothing;
// its retry backs the frame the same way.
func (d *memoryDiff) firstTouches(s *Strand, fresh Addr) {
	load, store := fresh+Addr(s.RandIntn(PageWords)), fresh+PageWords+Addr(s.RandIntn(PageWords))
	s.TxBegin()
	if w, ok := s.TxLoad(load); ok {
		if w != 0 {
			d.t.Errorf("TxLoad of a fresh page read %#x", w)
		}
		s.TxCommit()
	}
	s.TxBegin()
	if s.TxStore(store, 1) {
		d.t.Error("TxStore to a page missing from the micro-DTLB succeeded")
	}
	if d.mem.frames[PageOf(store)] != nil {
		d.t.Error("a TxStore that aborted on translation backed a frame")
	}
	s.TxBegin()
	if s.TxStore(store, 2) && s.TxCommit() {
		d.ref[store] = 2
	}
}

// txn runs one transactional attempt of up to six accesses, then commits
// it or aborts it with a trap, and applies its stores to the reference if
// it committed. Every TxLoad must read the attempt's own latest store to
// the word, or else the committed value.
func (d *memoryDiff) txn(s *Strand, pending []pendingWrite) []pendingWrite {
	s.TxBegin()
	for n := 1 + s.RandIntn(6); n > 0; n-- {
		a := d.randAddr(s.RandIntn)
		if s.RandIntn(2) == 0 {
			w, ok := s.TxLoad(a)
			if !ok {
				return pending
			}
			want, own := d.ref[a], false
			for i := len(pending) - 1; i >= 0 && !own; i-- {
				if pending[i].a == a {
					want, own = pending[i].w, true
				}
			}
			if w != want {
				d.t.Errorf("strand %d: TxLoad(%d) = %#x, want %#x (own store: %v)", s.ID(), a, w, want, own)
			}
			continue
		}
		w := s.Rand()
		if !s.TxStore(a, w) {
			return pending
		}
		pending = append(pending, pendingWrite{a, w})
	}
	if s.RandIntn(8) == 0 {
		s.TxAbortTrap()
		return pending
	}
	if s.TxCommit() {
		for _, p := range pending {
			d.ref[p.a] = p.w
		}
	}
	return pending
}

// peekAll checks every word of every mapped page against the reference,
// then the words at and past the end of memory, and that no Peek backed a
// frame or a frame exists for an unmapped page.
func (d *memoryDiff) peekAll() {
	before := d.backed()
	for p := range d.mem.pages {
		if !d.mem.pages[p].mapped {
			if d.mem.frames[p] != nil {
				d.t.Errorf("unmapped page %d has a frame", p)
			}
			continue
		}
		for a := Addr(p) * PageWords; a < Addr(p+1)*PageWords; a++ {
			d.peek(a)
		}
	}
	size := Addr(d.mem.Size())
	d.peek(size - 1)
	for _, a := range []Addr{size, size + 1, size + PageWords, ^Addr(0)} {
		if got := d.mem.Peek(a); got != 0 {
			d.t.Errorf("Peek(%d) past the end = %#x, want 0", a, got)
		}
	}
	if after := d.backed(); after != before {
		d.t.Errorf("Peek backed %d frames", after-before)
	}
}
