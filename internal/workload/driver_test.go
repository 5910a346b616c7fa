package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"rocktm/internal/sim"
)

// collect runs the compiled workload on a fresh machine and returns each
// strand's (op, key) sequence. The callback does no simulated work, so the
// only state the driver touches is the strand RNG — the pure generator
// behaviour under test.
func collect(t *testing.T, c *Compiled, strands, n int, seed uint64) [][][2]uint64 {
	t.Helper()
	cfg := sim.DefaultConfig(strands)
	cfg.MemWords = 1 << 16
	cfg.Seed = seed
	cfg.MaxCycles = 1 << 40
	m := sim.New(cfg)
	out := make([][][2]uint64, strands)
	m.Run(func(s *sim.Strand) {
		d := c.Driver(s, nil)
		d.Run(n, func(_, op int, key uint64) {
			out[s.ID()] = append(out[s.ID()], [2]uint64{uint64(op), key})
		})
	})
	return out
}

// digest hashes a sequence set for compact cross-run comparison.
func digest(seqs [][][2]uint64) string {
	h := sha256.New()
	var buf [16]byte
	for _, seq := range seqs {
		for _, e := range seq {
			binary.LittleEndian.PutUint64(buf[:8], e[0])
			binary.LittleEndian.PutUint64(buf[8:], e[1])
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Generators are seed-stable (same seed, same machine shape => identical
// sequences) and seed-sensitive, for every key distribution.
func TestGeneratorSeedStability(t *testing.T) {
	specs := map[string]Spec{
		"uniform": KVSpec(Uniform(256), 30),
		"zipf":    KVSpec(Zipfian(4096, 0.99), 30),
	}
	for name, sp := range specs {
		c := MustCompile(sp)
		a := digest(collect(t, c, 2, 300, 1))
		b := digest(collect(t, c, 2, 300, 1))
		if a != b {
			t.Errorf("%s: same seed produced different sequences (%s vs %s)", name, a, b)
		}
		if other := digest(collect(t, c, 2, 300, 2)); other == a {
			t.Errorf("%s: seeds 1 and 2 produced identical sequences", name)
		}
	}
}

// Per-strand streams are mutually independent: strand 0's sequence in a
// 2-strand machine equals strand 0's sequence alone, and differs from
// strand 1's.
func TestGeneratorPerStrandIndependence(t *testing.T) {
	c := MustCompile(KVSpec(Zipfian(1024, 0.9), 50))
	two := collect(t, c, 2, 200, 1)
	one := collect(t, c, 1, 200, 1)
	if digest(two[:1]) != digest(one) {
		t.Error("strand 0's stream depends on the number of strands")
	}
	if digest(two[:1]) == digest(two[1:]) {
		t.Error("strands 0 and 1 share a stream")
	}
}

// The zipfian generator is Gray et al.'s: rank 0 is the hottest key, the
// frequency ordering follows rank for the head of the distribution, and
// all draws stay in range.
func TestZipfianShape(t *testing.T) {
	const n = 1024
	c := MustCompile(Spec{Ops: []Op{{Name: "get"}}, Keys: Zipfian(n, 0.99)})
	seqs := collect(t, c, 1, 20000, 1)
	counts := make([]int, n)
	for _, e := range seqs[0] {
		if e[1] >= n {
			t.Fatalf("zipf key %d out of range", e[1])
		}
		counts[e[1]]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Errorf("zipf head not ordered: c0=%d c1=%d c10=%d", counts[0], counts[1], counts[10])
	}
	// With theta=0.99 over 1024 keys, rank 0 alone draws ~13% of accesses.
	if frac := float64(counts[0]) / 20000; frac < 0.05 {
		t.Errorf("hottest key drew only %.1f%% of accesses", 100*frac)
	}
}

// zipf draw: the precomputed-constant path is pure float math on u; pin
// the edge behaviour (u=0 -> rank 0, u near 1 stays in range, monotone in
// u).
func TestZipfDrawEdges(t *testing.T) {
	z := newZipf(1000, 0.9)
	if got := z.draw(0); got != 0 {
		t.Errorf("draw(0) = %d, want 0", got)
	}
	prev := -1
	for _, u := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999999} {
		k := z.draw(u)
		if k < 0 || k >= 1000 {
			t.Fatalf("draw(%g) = %d out of range", u, k)
		}
		if k < prev {
			t.Fatalf("draw not monotone in u at %g: %d < %d", u, k, prev)
		}
		prev = k
	}
}

// The steady-state per-operation driver path (key draw, op roll, latency
// record) must allocate nothing: it runs inside every figure's timed loop.
func TestDriverSteadyStateAllocationFree(t *testing.T) {
	for name, sp := range map[string]Spec{
		"uniform": KVSpec(Uniform(256), 30),
		"zipf":    KVSpec(Zipfian(512, 0.9), 30),
	} {
		c := MustCompile(sp)
		cfg := sim.DefaultConfig(1)
		cfg.MemWords = 1 << 16
		cfg.Seed = 1
		cfg.MaxCycles = 1 << 44
		m := sim.New(cfg)
		m.Run(func(s *sim.Strand) {
			d := c.Driver(s, nil)
			sink := func(_, _ int, _ uint64) {}
			d.Run(10, sink) // warm up
			allocs := testing.AllocsPerRun(100, func() { d.Run(10, sink) })
			if allocs != 0 {
				t.Errorf("%s: driver allocates %v per 10 ops, want 0", name, allocs)
			}
		})
	}
}

// splitmix64 float01 stays in (0, 1] so ln(u) is always finite.
func TestPRNGFloat01Range(t *testing.T) {
	r := prng{state: 12345}
	for i := 0; i < 100000; i++ {
		u := r.float01()
		if !(u > 0 && u <= 1) {
			t.Fatalf("float01 = %g out of (0,1]", u)
		}
	}
}
