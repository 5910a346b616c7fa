package sim

import (
	"fmt"
	"sync"
)

// Word is the unit of simulated storage: a 64-bit value. Pointers within
// simulated memory are stored as words holding the target Addr; Addr 0 plays
// the role of the null pointer (the allocator never hands out address 0).
type Word = uint64

// Addr is a word-granularity simulated address.
type Addr uint32

// Geometry of the simulated memory system.
const (
	// WordsPerLine is the number of 64-bit words per 64-byte cache line.
	WordsPerLine = 8
	// LineShift converts a word address to a line number.
	LineShift = 3
	// PageWords is the number of words per 8 KB page.
	PageWords = 1024
	// PageShift converts a word address to a page number.
	PageShift = 10
)

// LineOf returns the cache-line number containing address a.
func LineOf(a Addr) int32 { return int32(a >> LineShift) }

// PageOf returns the page number containing address a.
func PageOf(a Addr) int32 { return int32(a >> PageShift) }

// lineMeta is the coherence-directory entry for one cache line.
//
// present is a bitmask (by strand ID) of L1 caches currently holding the
// line; marked is the subset that holds it *transactionally marked*. A store
// by any strand invalidates the line everywhere else and — per Rock's
// "requester wins" policy — dooms every transaction that had it marked.
type lineMeta struct {
	present uint64
	marked  uint64
	written uint64
}

// pageMeta is the simulated OS view of one page.
type pageMeta struct {
	mapped   bool // address range handed out by the allocator
	walkable bool // mapping present in the page tables (hardware-walkable)
	writable bool // write permission established (first write fault taken)
	gen      uint32
}

// Memory is the shared simulated memory: a flat array of words plus the
// coherence directory and the OS page map. All mutation happens under the
// machine's baton (exactly one strand executes at a time), so no locking is
// required.
//
// The word array and the coherence directory are backed lazily: they only
// grow (geometrically) to cover the high-water mark of the bump allocator,
// never to the full configured size. Experiments routinely configure tens
// of megabytes of simulated memory and touch a fraction of it, and zeroing
// ~45 MB of backing store per simulated machine dominated the cost of
// small experiment cells. Untouched simulated memory still reads as zero
// (Peek bounds-checks), so this is invisible to simulated code.
type Memory struct {
	limit int    // configured capacity, in words (Alloc fails beyond this)
	words []Word // grows lazily towards limit
	lines []lineMeta
	pages []pageMeta
	next  Addr // bump allocator cursor
}

// memBacking is a retired Memory's backing store, cached process-wide for
// the next Machine. dirty is the former len of words (the allocator's
// high-water mark); everything beyond it was never written and is still
// pristine zero from the original make, so a new owner only has to scrub
// the dirty prefix instead of zeroing (and geometrically re-zeroing and
// copying) a fresh array. Experiment sweeps build hundreds of short-lived
// machines with near-identical footprints, and this recycling is what keeps
// their construction cost at one memclr of the touched range.
type memBacking struct {
	words []Word
	lines []lineMeta
	dirty int
}

var backingPool sync.Pool

func newMemory(words int) *Memory {
	if words < PageWords {
		words = PageWords
	}
	// Round up to whole pages.
	words = (words + PageWords - 1) &^ (PageWords - 1)
	m := &Memory{
		limit: words,
		pages: make([]pageMeta, words/PageWords),
		next:  WordsPerLine, // skip line 0 so Addr 0 stays "null"
	}
	if b, _ := backingPool.Get().(*memBacking); b != nil && b.dirty <= words {
		// Scrubbing the dirty prefix costs at most what zeroing this
		// machine's full configured size would; a backing dirtier than that
		// (from a much larger experiment) is cheaper to drop than to scrub.
		clear(b.words[:b.dirty])
		clear(b.lines[:(b.dirty+WordsPerLine-1)/WordsPerLine])
		n := cap(b.words)
		if ln := cap(b.lines) * WordsPerLine; ln < n {
			n = ln
		}
		if n > words {
			n = words
		}
		n &^= PageWords - 1
		if n >= PageWords {
			m.words = b.words[:n]
			m.lines = b.lines[:n/WordsPerLine]
			return m
		}
	}
	m.ensure(PageWords)
	return m
}

// recycle surrenders the backing arrays to the process-wide pool. The Memory
// must not be written afterwards; reads see zeros (the empty-backing bounds
// checks treat everything as untouched).
//
// The dirty mark is the end of the last page Alloc mapped, not the
// backing's grown length. Alloc maps whole pages, so simulated loads and
// stores — and the coherence-directory bits they set — reach up to that
// page end even where it lies past the allocator cursor; nothing beyond
// it is mapped, so no simulated access can touch it. Geometric growth can
// leave the backing up to twice the mapped size, so scrubbing only the
// mapped prefix halves the next owner's memclr.
func (m *Memory) recycle() {
	if len(m.words) == 0 {
		return
	}
	dirty := (int(m.next) + PageWords - 1) &^ (PageWords - 1)
	if dirty > len(m.words) {
		dirty = len(m.words)
	}
	backingPool.Put(&memBacking{words: m.words, lines: m.lines, dirty: dirty})
	m.words, m.lines = nil, nil
}

// ensure grows the word array and coherence directory to cover at least n
// words (whole pages, geometric growth, capped at the configured size).
func (m *Memory) ensure(n int) {
	if n <= len(m.words) {
		return
	}
	grown := len(m.words) * 2
	if grown < n {
		grown = n
	}
	if grown > m.limit {
		grown = m.limit
	}
	grown = (grown + PageWords - 1) &^ (PageWords - 1)
	words := make([]Word, grown)
	copy(words, m.words)
	m.words = words
	lines := make([]lineMeta, grown/WordsPerLine)
	copy(lines, m.lines)
	m.lines = lines
}

// Size returns the number of words of simulated memory.
func (m *Memory) Size() int { return m.limit }

// PageCount returns the number of simulated pages.
func (m *Memory) PageCount() int { return len(m.pages) }

// Alloc hands out n words aligned to align words (align must be a power of
// two; 0 or 1 means word alignment). The returned range is mapped, walkable
// and writable — equivalent to memory that the process has already touched.
// Alloc panics if the simulated memory is exhausted; experiments size their
// machines up front.
func (m *Memory) Alloc(n int, align int) Addr {
	if n <= 0 {
		panic("sim: Alloc of non-positive size")
	}
	if align <= 1 {
		align = 1
	}
	a := (m.next + Addr(align) - 1) &^ (Addr(align) - 1)
	if int(a)+n > m.limit {
		panic(fmt.Sprintf("sim: out of simulated memory (want %d words at %d, have %d)", n, a, m.limit))
	}
	m.next = a + Addr(n)
	m.ensure(int(m.next))
	for p := PageOf(a); p <= PageOf(a+Addr(n)-1); p++ {
		m.pages[p].mapped = true
		m.pages[p].walkable = true
		m.pages[p].writable = true
	}
	return a
}

// AllocLines allocates n words starting on a cache-line boundary.
func (m *Memory) AllocLines(n int) Addr { return m.Alloc(n, WordsPerLine) }

// Remap simulates munmap+mmap of the pages covering [a, a+n): the range
// stays allocated but its page-table presence and write permission are
// revoked and all TLB entries for it become stale. A subsequent
// non-transactional touch takes a page fault and re-establishes the mapping;
// a transactional access aborts (LD|PREC for loads, ST for stores) as
// described in Section 3 of the paper.
func (m *Memory) Remap(a Addr, n int) {
	for p := PageOf(a); p <= PageOf(a+Addr(n)-1); p++ {
		m.pages[p].walkable = false
		m.pages[p].writable = false
		m.pages[p].gen++
	}
}

// Poke writes a word directly, bypassing cost accounting, caches and
// coherence. It is intended for test setup and data-structure
// prepopulation before a timed run starts.
func (m *Memory) Poke(a Addr, w Word) {
	m.ensure(int(a) + 1)
	m.words[a] = w
}

// Peek reads a word directly, bypassing cost accounting and caches. It is
// intended for validation after a run completes. Words beyond the lazy
// backing's high-water mark have never been written and read as zero.
func (m *Memory) Peek(a Addr) Word {
	if int(a) >= len(m.words) {
		return 0
	}
	return m.words[a]
}

// PokeRange fills [a, a+len(ws)) directly.
func (m *Memory) PokeRange(a Addr, ws []Word) {
	m.ensure(int(a) + len(ws))
	copy(m.words[a:int(a)+len(ws)], ws)
}
