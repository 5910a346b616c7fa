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

// Memory is the shared simulated memory: the OS page map, the bump
// allocator, and one frame per page that holds the page's words and its
// lines' coherence-directory entries. All mutation happens under the
// machine's baton (exactly one strand executes at a time), so no locking is
// required.
//
// Frames are backed on a page's first touch: by the L1 fill of a load or
// store, by the pre-fill arbitration probe of the committer-wins and
// timestamp designs, or by Poke. Experiments configure tens of megabytes
// of simulated memory and allocate large tables (SkySTM's
// orec and reader shards alone are 5 × 2^16 words) of which a run touches
// a few pages, so the host pays for the pages simulated code touches, not
// for the configured size or the allocator's high-water mark. An unbacked
// page reads as zero, and Peek backs nothing, so this is invisible to
// simulated code.
type Memory struct {
	limit int // configured capacity, in words (Alloc fails beyond this)
	// frames maps each page to its frame, nil until the first touch. The
	// slice is never reallocated, so every strand keeps its own copy of
	// the header and an access reaches its word in one indexed load.
	frames []*frame
	pages  []pageMeta
	next   Addr // bump allocator cursor
}

// frame backs one page: its words and the directory entries of its lines.
type frame struct {
	words [PageWords]Word
	lines [linesPerPage]lineMeta
}

const (
	// linesPerPage is the number of cache lines per page.
	linesPerPage = PageWords / WordsPerLine
	// linePageShift converts a line number to a page number.
	linePageShift = PageShift - LineShift
)

// word returns a's word, which must lie in this frame's page.
func (f *frame) word(a Addr) *Word { return &f.words[a&(PageWords-1)] }

// dir returns line's directory entry, which must lie in this frame's page.
func (f *frame) dir(line int32) *lineMeta { return &f.lines[line&(linesPerPage-1)] }

// framePool holds scrubbed frames for the next page a machine touches. The
// runner's workers build and recycle machines concurrently, so the pool is
// a sync.Pool.
var framePool = sync.Pool{New: func() any { return new(frame) }}

// pageTables is a recycled Memory's frames and pages tables, as
// tablesPool holds them. Every frame pointer in them is nil, to the end of
// their capacity.
type pageTables struct {
	frames []*frame
	pages  []pageMeta
}

// tablesPool holds the page tables of recycled memories, so the next
// machine reuses them instead of allocating two tables of one entry per
// page (64 KB at the default 32 MB).
var tablesPool sync.Pool

func newMemory(words int) *Memory {
	if words < PageWords {
		words = PageWords
	}
	// Round up to whole pages.
	words = (words + PageWords - 1) &^ (PageWords - 1)
	n := words / PageWords
	m := &Memory{
		limit: words,
		next:  WordsPerLine, // skip line 0 so Addr 0 stays "null"
	}
	if t, _ := tablesPool.Get().(*pageTables); t != nil && cap(t.frames) >= n {
		m.frames, m.pages = t.frames[:n], t.pages[:n]
		clear(m.pages)
	} else {
		m.frames, m.pages = make([]*frame, n), make([]pageMeta, n)
	}
	return m
}

// frame returns page p's frame, backing it from the pool on the first touch.
func (m *Memory) frame(p int32) *frame {
	if f := m.frames[p]; f != nil {
		return f
	}
	f := framePool.Get().(*frame)
	m.frames[p] = f
	return f
}

// recycle scrubs every backed frame and returns it to framePool, then
// hands the emptied page tables to tablesPool. Afterwards the Memory has
// no pages, so it reads as zero; it must not be written.
func (m *Memory) recycle() {
	for p, f := range m.frames {
		if f != nil {
			*f = frame{}
			framePool.Put(f)
			m.frames[p] = nil
		}
	}
	tablesPool.Put(&pageTables{m.frames, m.pages})
	m.frames, m.pages = nil, nil
}

// Size returns the number of words of simulated memory.
func (m *Memory) Size() int { return m.limit }

// OutOfMemory is the value Alloc panics with when simulated memory cannot
// hold an allocation.
type OutOfMemory struct {
	Want int  // words asked for
	At   Addr // where the aligned allocation would have started
	Have int  // the memory's size, in words
}

func (e OutOfMemory) Error() string {
	return fmt.Sprintf("sim: out of simulated memory (want %d words at %d, have %d)", e.Want, e.At, e.Have)
}

// Alloc hands out n words aligned to align words (align must be a power of
// two; 0 or 1 means word alignment). The returned range is mapped, walkable
// and writable — equivalent to memory that the process has already touched.
// Alloc panics with an OutOfMemory if the simulated memory is exhausted;
// experiments size their machines up front.
func (m *Memory) Alloc(n int, align int) Addr {
	if n <= 0 {
		panic("sim: Alloc of non-positive size")
	}
	if align <= 1 {
		align = 1
	}
	a := (m.next + Addr(align) - 1) &^ (Addr(align) - 1)
	if int(a)+n > m.limit {
		panic(OutOfMemory{Want: n, At: a, Have: m.limit})
	}
	m.next = a + Addr(n)
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
	*m.frame(PageOf(a)).word(a) = w
}

// Peek reads a word directly, bypassing cost accounting and caches. It is
// intended for validation after a run completes. A word on a page that was
// never touched, or beyond the configured size, reads as zero, and Peek
// backs no frame.
func (m *Memory) Peek(a Addr) Word {
	p := PageOf(a)
	if int(p) >= len(m.frames) || m.frames[p] == nil {
		return 0
	}
	return *m.frames[p].word(a)
}
