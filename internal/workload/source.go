package workload

import "math"

// prng is a splitmix64 stream. A Source keeps three of them so that its
// op/key, secondary-key and arrival draws cannot perturb one another.
type prng struct{ state uint64 }

func (r *prng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float01 returns a uniform float64 in (0, 1] (never 0, so ln(u) is finite).
func (r *prng) float01() float64 {
	return (float64(r.next()>>11) + 1) / (1 << 53)
}

// Source draws a compiled workload's (op, key) stream and arrival times
// without a sim.Strand: it is the load generator of the sharded service
// tier (internal/service), where requests are produced at the *fleet*
// level — before any simulated machine is chosen — and only then routed
// to a shard. Dedicated splitmix64 streams keep the draws apart:
//
//   - the op/key stream draws exactly one roll per op selection and the
//     distribution's draws per key, so the operation stream is a pure
//     function of (spec, seed) — independent of the arrival process and
//     of anything the service tier does with the requests;
//   - the arrival stream is separate, so changing the arrival shape (or
//     disabling arrivals entirely) never perturbs which ops and keys are
//     generated. ExtraKey draws from a third stream with the same
//     rationale: a cross-shard mix change must not shift the primary
//     stream.
type Source struct {
	c       *Compiled
	arrival Arrival
	rng     prng // op/key stream
	extra   prng // secondary-key stream (cross-shard mixes)
	arr     prng // arrival stream
	tNext   int64
}

// Source binds the compiled workload and an arrival process to a
// fleet-level generator; the arrival must be valid (Arrival.Validate).
// The op/key stream seeds from seed, the secondary-key stream from a
// second fold of seed, and the arrival stream from a.Seed (folded with
// seed so two sources with different seeds are fully independent).
func (c *Compiled) Source(seed uint64, a Arrival) *Source {
	return &Source{
		c:       c,
		arrival: a,
		rng:     prng{state: seed*0x9e3779b9 + 0x1234567},
		extra:   prng{state: seed*0x85ebca77 + 0xfedcba9},
		arr:     prng{state: (a.Seed*0x9e3779b9 + 1) ^ (seed * 0xc2b2ae35)},
	}
}

// Next draws the next (op, key) pair in the spec's declared order from
// the primary stream.
func (s *Source) Next() (op int, key uint64) { return s.c.draw(s.rng.next) }

// ExtraKey draws one additional key from the dedicated secondary stream —
// the second leg of a cross-shard transaction. Consuming it does not move
// the primary op/key stream.
func (s *Source) ExtraKey() uint64 { return s.c.key(s.extra.next) }

// ExtraRoll draws a uniform int in [0, n) from the secondary stream (the
// cross-shard-fraction roll, coordinator-fault rolls, ...).
func (s *Source) ExtraRoll(n int) int { return int(s.extra.next() % uint64(n)) }

// NextArrival advances and returns the next arrival time in cycles. For a
// closed-loop arrival it returns the previous arrival time unchanged —
// back-to-back arrivals, so callers that always consume arrivals degrade
// gracefully. An open-loop gap is exponential (min 1 cycle) with mean
// MeanGap divided by the envelope's rate factor at the previous arrival;
// a constant shape divides by exactly 1.
func (s *Source) NextArrival() int64 {
	a := &s.arrival
	if a.MeanGap <= 0 {
		return s.tNext
	}
	g := -(a.MeanGap / a.rateFactor(s.tNext)) * math.Log(s.arr.float01())
	if g < 1 {
		g = 1
	}
	s.tNext += int64(g)
	return s.tNext
}
