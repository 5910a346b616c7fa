package sim

import "sync"

// l1Cache models a strand's 4-way set-associative L1 data cache. Rock's
// 32 KB, 64-byte-line L1 has 128 sets of 4 ways; transactional read-set
// tracking lives here: a transactionally marked line that gets displaced
// aborts the transaction with CPS=LD, and five loads mapping to one 4-way
// set can never all be marked at once (the "cache set test" of Section 3).
//
// Sets are powers of two (enforced by sim.New), so set selection is a mask
// instead of a modulo, and access resolves hit/victim in one pass over the
// ways instead of the old lookup-then-scan double pass. Victim choice is
// bit-identical to the original: the *first* invalid way by index wins,
// then the least-recently-used unmarked way, then the least-recently-used
// marked way (ages are unique monotonic ticks, so LRU ties cannot occur).
// l1Slot is one L1 way: tag, transactional mark and LRU timestamp packed
// into 16 bytes, so a whole 4-way set occupies a single 64-byte host cache
// line — an access touches one line where the old parallel tag/age/marked
// arrays touched three.
type l1Slot struct {
	tag    int32 // -1 = invalid
	marked bool
	age    int64 // LRU timestamp (unique monotonic tick)
}

type l1Cache struct {
	sets    int
	ways    int
	setMask int32
	slots   []l1Slot // sets*ways entries
	tick    int64
}

func newL1(sets, ways int) *l1Cache {
	c := &l1Cache{
		sets:    sets,
		ways:    ways,
		setMask: int32(sets - 1),
		slots:   make([]l1Slot, sets*ways),
	}
	for i := range c.slots {
		c.slots[i].tag = -1
	}
	return c
}

// setBase returns the first slot of line's set.
func (c *l1Cache) setBase(line int32) int {
	return int(line&c.setMask) * c.ways
}

// lookup returns the slot index holding line, or -1.
func (c *l1Cache) lookup(line int32) int {
	base := c.setBase(line)
	set := c.slots[base : base+c.ways]
	for w := range set {
		if set[w].tag == line {
			return base + w
		}
	}
	return -1
}

// touch probes line, refreshing its LRU timestamp on a hit, and returns
// the slot index holding it or -1. It advances the LRU tick whether or not
// the probe hits — exactly as the fused access did — so a following
// fillVictim must NOT advance it again. touch is small enough to inline,
// which keeps the L1-hit path (the overwhelmingly common case) free of any
// function-call overhead in Strand.fill.
func (c *l1Cache) touch(line int32) int {
	c.tick++
	base := int(line&c.setMask) * c.ways
	set := c.slots[base : base+c.ways]
	for w := range set {
		if set[w].tag == line {
			set[w].age = c.tick
			return base + w
		}
	}
	return -1
}

// fillVictim installs line after a touch miss (the tick was already
// advanced by touch), returning the displaced line (-1 if a way was free),
// whether it was transactionally marked, and the slot now holding line.
//
// On a miss with all ways transactionally marked, the LRU *marked* way is
// displaced — that is the mechanism behind LD aborts: the hardware cannot
// keep the read set pinned. Victim preference: first invalid way by index,
// else LRU unmarked, else LRU marked.
func (c *l1Cache) fillVictim(line int32) (evicted int32, evictedMark bool, idx int) {
	base := c.setBase(line)
	set := c.slots[base : base+c.ways]
	var firstInvalid, bestUnmarked, bestMarked = -1, -1, -1
	for w := range set {
		s := &set[w]
		if s.tag == -1 {
			if firstInvalid == -1 {
				firstInvalid = w
			}
			continue
		}
		if !s.marked {
			if bestUnmarked == -1 || s.age < set[bestUnmarked].age {
				bestUnmarked = w
			}
		} else if bestMarked == -1 || s.age < set[bestMarked].age {
			bestMarked = w
		}
	}
	victim, victimMarked := firstInvalid, false
	if victim == -1 {
		if bestUnmarked >= 0 {
			victim = bestUnmarked
		} else {
			victim, victimMarked = bestMarked, true
		}
	}
	v := &set[victim]
	evicted = v.tag
	evictedMark = victimMarked && evicted != -1
	v.tag = line
	v.age = c.tick
	v.marked = false
	return evicted, evictedMark, base + victim
}

// access touches line, filling it on a miss (touch + fillVictim fused; the
// hot machine path calls the two halves directly so the hit half inlines).
func (c *l1Cache) access(line int32) (hit bool, evicted int32, evictedMark bool, idx int) {
	if i := c.touch(line); i >= 0 {
		return true, -1, false, i
	}
	evicted, evictedMark, idx = c.fillVictim(line)
	return false, evicted, evictedMark, idx
}

// invalidate drops line if present, returning (wasPresent, wasMarked).
func (c *l1Cache) invalidate(line int32) (bool, bool) {
	if i := c.lookup(line); i >= 0 {
		m := c.slots[i].marked
		c.slots[i].tag = -1
		c.slots[i].marked = false
		return true, m
	}
	return false, false
}

// mark flags slot idx as transactionally marked.
func (c *l1Cache) mark(idx int) { c.slots[idx].marked = true }

// clearMark removes the transactional mark from line if present.
func (c *l1Cache) clearMark(line int32) {
	if i := c.lookup(line); i >= 0 {
		c.slots[i].marked = false
	}
}

// markedCountInSet returns how many ways of line's set are marked. Used by
// the failure-analysis profiler (Section 6.1 reports the maximum number of
// read-set lines mapping to a single L1 set).
func (c *l1Cache) markedCountInSet(line int32) int {
	base := c.setBase(line)
	set := c.slots[base : base+c.ways]
	n := 0
	for w := range set {
		if set[w].marked && set[w].tag != -1 {
			n++
		}
	}
	return n
}

// l2Cache models the shared, inclusive second-level cache. Evicting a line
// from L2 back-invalidates every L1 copy; if one of those copies was
// transactionally marked, the owning transaction aborts with CPS=COH — the
// surprising single-threaded "coherence" failures of Section 3's cache set
// test (the OS idle loop on a sibling strand displacing L2 lines).
//
// Like the L1, set selection is a mask. The victim preference reproduces
// the original scan exactly — note that it differs from the L1's: the
// *last* invalid way by index wins (the old loop kept overwriting the
// victim with each invalid way it passed), else the LRU way.
//
// Every set is modelled, but a set is stored only once a run touches it,
// the way memory backs a page frame on first touch: a machine touches a
// few hundred of the default 4,096 sets, so a dense slot array would
// spend 512 KB a machine on sets no run reaches. setOf maps each set to
// its ways in slots. A set's first access appends its ways all invalid,
// as every dense set started, so its first miss still fills way ways-1.
// l2Slot packs one L2 way's tag and LRU timestamp (16 bytes), for the
// same single-pass, cache-line-friendly layout as the L1.
type l2Slot struct {
	tag int32 // -1 = invalid
	age int64
}

type l2Cache struct {
	ways    int
	setMask int32
	setOf   []int32  // per set: 0 = untouched, else 1 + its first way's index in slots
	slots   []l2Slot // the touched sets' ways, ways entries a set in first-touch order
	tick    int64
}

// l2Pool holds the L2s of recycled machines (Machine.Recycle), so each new
// machine reuses a retired L2's set index and slot capacity instead of
// allocating them.
var l2Pool sync.Pool

// newL2 returns an empty L2 of the given geometry, reusing a pooled one:
// emptying it clears the set index (16 KB at the default geometry) and
// keeps the slots' capacity.
func newL2(sets, ways int) *l2Cache {
	c, _ := l2Pool.Get().(*l2Cache)
	if c == nil {
		c = &l2Cache{}
	}
	if cap(c.setOf) < sets {
		c.setOf = make([]int32, sets)
	} else {
		c.setOf = c.setOf[:sets]
		clear(c.setOf)
	}
	c.ways, c.setMask, c.tick = ways, int32(sets-1), 0
	c.slots = c.slots[:0]
	return c
}

// access touches line, returning whether it hit and which line (if any) was
// evicted to make room.
func (c *l2Cache) access(line int32) (hit bool, evicted int32) {
	c.tick++
	base := int(c.setOf[line&c.setMask]) - 1
	if base < 0 {
		base = c.backSet(int(line & c.setMask))
	}
	set := c.slots[base : base+c.ways]
	victim := 0
	for w := range set {
		s := &set[w]
		if s.tag == line {
			s.age = c.tick
			return true, -1
		}
		if s.tag == -1 {
			victim = w // last invalid way wins, as in the original scan
		} else if set[victim].tag != -1 && s.age < set[victim].age {
			victim = w
		}
	}
	v := &set[victim]
	evicted = v.tag
	v.tag = line
	v.age = c.tick
	return false, evicted
}

// backSet stores set on its first touch: it appends the set's ways, all
// invalid, and returns the index of the first.
func (c *l2Cache) backSet(set int) int {
	base := len(c.slots)
	for range c.ways {
		c.slots = append(c.slots, l2Slot{tag: -1})
	}
	c.setOf[set] = int32(base + 1)
	return base
}
