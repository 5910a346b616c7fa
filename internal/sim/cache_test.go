package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// denseL2 is the L2 as it was before sets were stored on first touch: one
// slot array sized to the configured geometry, every way invalid at
// construction. It is the reference the touch-backed L2 must match, access
// for access.
type denseL2 struct {
	ways    int
	setMask int32
	slots   []l2Slot
	tick    int64
}

func newDenseL2(sets, ways int) *denseL2 {
	c := &denseL2{ways: ways, setMask: int32(sets - 1), slots: make([]l2Slot, sets*ways)}
	for i := range c.slots {
		c.slots[i].tag = -1
	}
	return c
}

func (c *denseL2) access(line int32) (hit bool, evicted int32) {
	c.tick++
	base := int(line&c.setMask) * c.ways
	set := c.slots[base : base+c.ways]
	victim := 0
	for w := range set {
		s := &set[w]
		if s.tag == line {
			s.age = c.tick
			return true, -1
		}
		if s.tag == -1 {
			victim = w
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

// l2Lines returns n seeded random lines: three in four from a hot range
// of half the L2's capacity, so sets fill and lines hit, and the rest
// from a cold range eight times the capacity, so lines are evicted and
// sets are first touched throughout the stream.
func l2Lines(seed uint64, sets, ways, n int) []int32 {
	r := rand.New(rand.NewPCG(seed, uint64(sets*ways)))
	capacity := sets * ways
	lines := make([]int32, n)
	for i := range lines {
		if r.IntN(4) == 0 {
			lines[i] = int32(r.IntN(8 * capacity))
		} else {
			lines[i] = int32(r.IntN(capacity / 2))
		}
	}
	return lines
}

// diffL2 drives c, which must be empty, and a fresh dense L2 of the same
// geometry with lines, and fails at the first access whose (hit, evicted)
// pair differs. Afterwards c must store exactly the sets the lines touched.
func diffL2(t *testing.T, c *l2Cache, sets, ways int, lines []int32) {
	t.Helper()
	ref := newDenseL2(sets, ways)
	touched := map[int32]bool{}
	for i, line := range lines {
		hit, ev := c.access(line)
		wantHit, wantEv := ref.access(line)
		if hit != wantHit || ev != wantEv {
			t.Fatalf("%d×%d access %d (line %d): (hit, evicted) = (%v, %d), dense L2 says (%v, %d)",
				sets, ways, i, line, hit, ev, wantHit, wantEv)
		}
		touched[line&int32(sets-1)] = true
	}
	if got, want := len(c.slots), len(touched)*ways; got != want {
		t.Errorf("%d×%d L2 stores %d slots after touching %d sets, want %d", sets, ways, got, len(touched), want)
	}
}

// TestL2MatchesDense drives a fresh touch-backed L2 and the dense
// reference with the same seeded line streams: at Rock's default geometry,
// cpstest's 256 × 8, a direct-mapped L2, and a non-default set and way
// count.
func TestL2MatchesDense(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{4096, 8}, {256, 8}, {1024, 1}, {8192, 4}} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed=%d", g.sets, g.ways, seed), func(t *testing.T) {
				lines := l2Lines(seed, g.sets, g.ways, 20*g.sets*g.ways)
				diffL2(t, newL2(g.sets, g.ways), g.sets, g.ways, lines)
			})
		}
	}
}

// recycledL2 builds a machine with a (sets0, ways0) L2, drives its L2 with
// lines0 and recycles it, then builds a machine with a (sets, ways) L2
// until one draws the recycled L2 from the pool, and returns that machine.
// sync.Pool may drop a Put (the race detector drops one in four on
// purpose), so one round trip is not always enough; every L2 still goes
// back to the pool through Recycle, exactly once.
func recycledL2(t *testing.T, sets0, ways0 int, lines0 []int32, sets, ways int) *Machine {
	t.Helper()
	cfg := func(sets, ways int) Config {
		c := DefaultConfig(1)
		c.MemWords = 1 << 16
		c.L2Sets, c.L2Ways = sets, ways
		return c
	}
	for try := 0; try < 64; try++ {
		old := New(cfg(sets0, ways0))
		for _, line := range lines0 {
			old.l2.access(line)
		}
		used := old.l2
		old.Recycle()
		m := New(cfg(sets, ways))
		if m.l2 == used {
			return m
		}
		m.Recycle()
	}
	t.Fatal("no machine drew the recycled L2 from the pool in 64 tries")
	return nil
}

// TestL2RecycledAfterLargerRunMatchesDense draws a default-geometry L2
// from the pool after a machine that touched every set, and drives it
// with streams that touch fewer: none of the earlier run's lines may hit,
// and the new run stores only its own sets.
func TestL2RecycledAfterLargerRunMatchesDense(t *testing.T) {
	const sets, ways = 4096, 8
	big := l2Lines(7, sets, ways, 4*sets*ways)
	for _, n := range []int{100, 2000, sets * ways} {
		t.Run(fmt.Sprintf("accesses=%d", n), func(t *testing.T) {
			m := recycledL2(t, sets, ways, big, sets, ways)
			defer m.Recycle()
			diffL2(t, m.l2, sets, ways, l2Lines(uint64(n), sets, ways, n))
		})
	}
}

// TestL2RecycledAcrossGeometriesMatchesDense draws an L2 from the pool
// after a machine of another geometry: a larger and a smaller set index,
// and a different way count, each way round.
func TestL2RecycledAcrossGeometriesMatchesDense(t *testing.T) {
	for _, tc := range []struct{ sets0, ways0, sets, ways int }{
		{4096, 8, 256, 8},
		{256, 8, 4096, 8},
		{1024, 1, 8192, 4},
		{8192, 4, 1024, 1},
	} {
		t.Run(fmt.Sprintf("%dx%d-then-%dx%d", tc.sets0, tc.ways0, tc.sets, tc.ways), func(t *testing.T) {
			lines0 := l2Lines(11, tc.sets0, tc.ways0, 4*tc.sets0*tc.ways0)
			m := recycledL2(t, tc.sets0, tc.ways0, lines0, tc.sets, tc.ways)
			defer m.Recycle()
			diffL2(t, m.l2, tc.sets, tc.ways, l2Lines(13, tc.sets, tc.ways, 20*tc.sets*tc.ways))
		})
	}
}
