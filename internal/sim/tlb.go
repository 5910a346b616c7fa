package sim

import "math/bits"

// tlbEntry is one TLB slot. The fields a probe touches (page, gen) share a
// cache line with the intrusive LRU links so a hit costs one indexed load.
type tlbEntry struct {
	page int32  // -1 = free
	gen  uint32 // page generation at fill time
	next int32  // next-more-recently-used slot (-1 at head)
	prev int32  // next-less-recently-used slot (-1 at tail)
}

// tlb is a fully associative, LRU translation buffer with generation
// checking: entries become stale when the OS remaps the page (Memory.Remap
// bumps the page generation), which is how "re-mmap the memory ... has the
// effect of removing any TLB mappings" (Section 3) is modelled.
//
// The implementation is O(1) per probe and per fill, but is constrained to
// reproduce the original linear-scan implementation's decisions *exactly*
// (pinned by TestGoldenCycleIdentity):
//
//   - a page→slot index replaces the O(entries) probe scan;
//   - an intrusive doubly-linked list keeps exact LRU order. The old code
//     stamped a monotonic tick into age[slot] on every touch and evicted
//     the minimum-age slot; ticks were unique, so min-age is precisely the
//     list tail;
//   - a free-slot bitmap reproduces the old "first invalid slot by index"
//     victim preference (find-first-set = lowest index), which matters
//     because stale-generation probes punch holes at arbitrary indexes.
type tlb struct {
	n      int
	ent    []tlbEntry
	head   int32    // most recently used slot, -1 when empty
	tail   int32    // least recently used slot, -1 when empty
	slotOf []int32  // page -> slot+1 (0 = not resident); grown on fill
	free   []uint64 // bitmap of free slots
	nfree  int
}

func newTLB(entries int) *tlb {
	t := &tlb{}
	t.init(entries)
	return t
}

func (t *tlb) init(entries int) {
	t.n = entries
	t.ent = make([]tlbEntry, entries)
	t.head = -1
	t.tail = -1
	t.free = make([]uint64, (entries+63)/64)
	t.reset()
}

// reset empties t into the state init gives a TLB, keeping its arrays. The
// page index keeps its length, so a recycled strand's index regrows only
// past the highest page any of its machines translated, and maps no page.
func (t *tlb) reset() {
	t.flush()
	for i := range t.ent {
		t.ent[i] = tlbEntry{page: -1}
	}
}

func (t *tlb) setAllFree() {
	for i := range t.free {
		t.free[i] = ^uint64(0)
	}
	// Mask off the bits beyond the last slot so firstFree never returns one.
	if rem := t.n % 64; rem != 0 {
		t.free[len(t.free)-1] = (1 << uint(rem)) - 1
	}
	t.nfree = t.n
}

// firstFree returns the lowest-index free slot; the caller guarantees one
// exists. This is the old implementation's "first pageOf[i] == -1 wins"
// victim preference.
func (t *tlb) firstFree() int32 {
	for w, word := range t.free {
		if word != 0 {
			return int32(w*64 + bits.TrailingZeros64(word))
		}
	}
	panic("sim: tlb.firstFree on full TLB")
}

// ---- intrusive LRU list (head = MRU, tail = LRU) ----

func (t *tlb) unlink(s int32) {
	e := &t.ent[s]
	if e.prev >= 0 {
		t.ent[e.prev].next = e.next
	} else {
		t.tail = e.next
	}
	if e.next >= 0 {
		t.ent[e.next].prev = e.prev
	} else {
		t.head = e.prev
	}
}

func (t *tlb) pushMRU(s int32) {
	e := &t.ent[s]
	e.prev = t.head
	e.next = -1
	if t.head >= 0 {
		t.ent[t.head].next = s
	} else {
		t.tail = s
	}
	t.head = s
}

// moveToFront unlinks s — which the caller guarantees is resident and not
// already the head — and reinstalls it as MRU. This is unlink+pushMRU with
// the branches those guarantees make impossible removed.
func (t *tlb) moveToFront(s int32) {
	e := &t.ent[s]
	t.ent[e.next].prev = e.prev // e.next >= 0: s is not the head
	if e.prev >= 0 {
		t.ent[e.prev].next = e.next
	} else {
		t.tail = e.next
	}
	e.prev = t.head
	e.next = -1
	t.ent[t.head].next = s // head >= 0: the list holds at least s
	t.head = s
}

// slot returns the resident slot for page, or -1.
func (t *tlb) slot(page int32) int32 {
	if int(page) >= len(t.slotOf) {
		return -1
	}
	return t.slotOf[page] - 1
}

// drop frees the slot holding page (stale generation or flush).
func (t *tlb) drop(s int32) {
	t.slotOf[t.ent[s].page] = 0
	t.ent[s].page = -1
	t.unlink(s)
	t.free[s/64] |= 1 << uint(s%64)
	t.nfree++
}

// evict drops page's mapping if resident (the fault injector's TLB
// shootdown); a non-resident page is a no-op.
func (t *tlb) evict(page int32) {
	if s := t.slot(page); s >= 0 {
		t.drop(s)
	}
}

// lookup reports whether a current-generation mapping for page is present,
// making a hit the most recently used entry and dropping a stale one.
func (t *tlb) lookup(page int32, gen uint32) bool {
	s := t.slot(page)
	if s < 0 {
		return false
	}
	if t.ent[s].gen == gen {
		if t.head != s {
			t.moveToFront(s)
		}
		return true
	}
	// Stale mapping: drop it.
	t.drop(s)
	return false
}

// fill installs a mapping for page, evicting the LRU entry if needed.
func (t *tlb) fill(page int32, gen uint32) {
	if s := t.slot(page); s >= 0 {
		// Already resident (never reached from the machine paths, which
		// probe before filling): refresh in place.
		t.ent[s].gen = gen
		if t.head != s {
			t.moveToFront(s)
		}
		return
	}
	var victim int32
	if t.nfree > 0 {
		victim = t.firstFree()
		t.free[victim/64] &^= 1 << uint(victim%64)
		t.nfree--
	} else {
		victim = t.tail
		t.slotOf[t.ent[victim].page] = 0
		t.unlink(victim)
	}
	if int(page) >= len(t.slotOf) {
		t.grow(page)
	}
	t.ent[victim].page = page
	t.ent[victim].gen = gen
	t.slotOf[page] = victim + 1
	t.pushMRU(victim)
}

// grow extends the page→slot index to cover page. The index follows the
// highest page the strand has translated, not the configured memory, and
// doubles so that pages touched in ascending order regrow it only
// O(log pages) times.
func (t *tlb) grow(page int32) {
	n := max(2*len(t.slotOf), int(page)+1, 64)
	grown := make([]int32, n)
	copy(grown, t.slotOf)
	t.slotOf = grown
}

// flush drops every entry (used on simulated context switches).
func (t *tlb) flush() {
	for s := t.head; s >= 0; s = t.ent[s].prev {
		t.slotOf[t.ent[s].page] = 0
		t.ent[s].page = -1
	}
	t.head, t.tail = -1, -1
	t.setAllFree()
}

// mmu bundles a strand's translation state: a small micro-DTLB backed by a
// larger main DTLB, plus an instruction TLB. Rock fails a transactional
// store that misses the micro-DTLB (CPS=ST); because the failing access
// generates an MMU request, the mapping is established from the higher
// levels and a retry succeeds — unless no mapping exists at any level, in
// which case only software TLB warmup (the "dummy CAS" idiom) helps.
// The three TLBs are embedded by value (and mmu itself is embedded by
// value in Strand), so a translation probe is one indexed load off the
// strand rather than a pointer chase per level.
type mmu struct {
	micro tlb
	main  tlb
	itlb  tlb
}

func (u *mmu) init(microEntries, mainEntries, itlbEntries int) {
	u.micro.init(microEntries)
	u.main.init(mainEntries)
	u.itlb.init(itlbEntries)
}

// reset empties all three TLBs (tlb.reset).
func (u *mmu) reset() {
	u.micro.reset()
	u.main.reset()
	u.itlb.reset()
}
