// Package workload is the declarative workload layer: every figure driver
// in internal/bench describes *what* its per-strand operation stream looks
// like — the operation mix, the key distribution and the prepopulation —
// as a workload.Spec, and runs it through one shared, allocation-free
// per-strand Driver instead of a hand-rolled loop. The sharded service
// tier draws the same kind of stream at fleet level through a Source,
// which also carries the fleet's open-loop Arrival process.
//
// Two disciplines make the layer safe to adopt under the repository's
// byte-identity regime (see internal/bench/golden_test.go):
//
//   - RNG-sequence preservation: for the paper's closed-loop uniform
//     configurations the Driver consumes the strand's random stream in
//     exactly the order the legacy loops did (key draw, then op roll — or
//     roll first where the original drew in that order), so every
//     pre-existing golden figure digest is unchanged.
//   - Stream separation: a Source draws arrivals from a dedicated
//     splitmix64 stream, never from its op/key stream, so the arrival
//     process cannot perturb which ops and keys are generated.
//
// Key skew is a plain Spec field; it renders through Keys.String (and the
// fleet's arrival through Arrival.String) into runner.Spec.Params so the
// content-addressed result cache keys them.
package workload

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Dist selects a key distribution.
type Dist uint8

const (
	// KeyNone draws no keys at all (counter increments, queue ops).
	KeyNone Dist = iota
	// KeyUniform draws uniformly from [Offset, Offset+Range).
	KeyUniform
	// KeyZipfian draws from [Offset, Offset+Range) with Zipf parameter
	// Theta in (0,1): rank-0 keys are hottest (Gray et al.'s generator,
	// the same family YCSB uses).
	KeyZipfian
)

// Keys describes the key distribution of a Spec.
type Keys struct {
	Dist   Dist
	Range  int
	Offset uint64
	// Theta is the zipfian skew parameter, in (0,1); larger is more skewed.
	Theta float64
}

// Uniform draws keys uniformly from [0, r).
func Uniform(r int) Keys { return Keys{Dist: KeyUniform, Range: r} }

// UniformOffset draws keys uniformly from [off, off+r).
func UniformOffset(r int, off uint64) Keys {
	return Keys{Dist: KeyUniform, Range: r, Offset: off}
}

// Zipfian draws keys zipf-distributed over [0, r) with parameter theta.
func Zipfian(r int, theta float64) Keys {
	return Keys{Dist: KeyZipfian, Range: r, Theta: theta}
}

// String renders the distribution canonically for cache keys and labels.
func (k Keys) String() string {
	switch k.Dist {
	case KeyNone:
		return "none"
	case KeyUniform:
		if k.Offset != 0 {
			return fmt.Sprintf("uniform:%d+%d", k.Range, k.Offset)
		}
		return fmt.Sprintf("uniform:%d", k.Range)
	case KeyZipfian:
		return fmt.Sprintf("zipf:%d:%g", k.Range, k.Theta)
	}
	return "invalid"
}

// Op is one operation class of a mix. Weight is in units of the Spec's
// Roll denominator; ops are selected by cumulative threshold in slice
// order, reproducing the legacy `switch { case r < a: ... case r < b: }`
// drivers exactly.
type Op struct {
	Name   string
	Weight int
	// NoKey marks an op that draws no key. Only meaningful under
	// OpThenKey ordering (the conditional key draw of the chat workload);
	// under KeyThenOp the single up-front key draw is shared by all ops.
	NoKey bool
}

// Order fixes the relative order of the key draw and the op roll, because
// the legacy drivers disagree and the RNG call sequence must be preserved.
type Order uint8

const (
	// KeyThenOp draws the key first, then rolls the op — the kv drivers.
	KeyThenOp Order = iota
	// OpThenKey rolls the op first, then draws the key (skipped for NoKey
	// ops) — the vector and chat drivers.
	OpThenKey
)

// Shape selects the time-varying envelope of an open-loop arrival
// process. The zero value is a constant rate; the diurnal shape modulates
// the instantaneous rate as a function of the arrival clock, which is how
// a service tier sees a load curve rather than a flat offered rate.
type Shape uint8

const (
	// ShapeConstant is a flat rate: exponential gaps with mean MeanGap.
	ShapeConstant Shape = iota
	// ShapeDiurnal modulates the rate sinusoidally with period Period
	// cycles and relative amplitude Amplitude in [0,1): the instantaneous
	// rate is base*(1 + Amplitude*sin(2*pi*t/Period)), a day/night curve
	// compressed into simulated time.
	ShapeDiurnal
)

// Arrival describes a Source's arrival process. The zero value is closed
// loop: every request arrives back to back. A positive MeanGap switches
// to an open-loop process with exponentially distributed inter-arrival
// gaps (mean MeanGap cycles) drawn from a dedicated seeded stream;
// requests that arrive while the service is still busy queue, and their
// measured latency includes the queueing delay — the property that
// exposes tail collapse under load. Shape layers a diurnal envelope over
// the base rate; gaps are drawn exponential with mean MeanGap divided by
// the envelope's instantaneous rate factor at the previous arrival time.
type Arrival struct {
	// MeanGap is the mean inter-arrival gap in simulated cycles
	// (0 = closed loop).
	MeanGap float64
	// Seed seeds the arrival stream (folded with the Source's seed).
	// Ignored when closed-loop.
	Seed uint64
	// Shape selects the rate envelope (constant, diurnal).
	Shape Shape
	// Period and Amplitude parameterize ShapeDiurnal.
	Period    float64
	Amplitude float64
}

// Diurnal is an open-loop arrival with a sinusoidal rate envelope.
func Diurnal(meanGap float64, seed uint64, period, amplitude float64) Arrival {
	return Arrival{MeanGap: meanGap, Seed: seed, Shape: ShapeDiurnal, Period: period, Amplitude: amplitude}
}

// String renders the arrival process canonically for cache keys.
func (a Arrival) String() string {
	if a.MeanGap <= 0 {
		return "closed"
	}
	if a.Shape == ShapeDiurnal {
		return fmt.Sprintf("diurnal:%g:%d:%g:%g", a.MeanGap, a.Seed, a.Period, a.Amplitude)
	}
	return fmt.Sprintf("open:%g:%d", a.MeanGap, a.Seed)
}

// rateFactor is the envelope's instantaneous rate multiplier at arrival
// clock t. It is positive for every valid Arrival, so the derived mean
// gap MeanGap/rateFactor stays finite.
func (a Arrival) rateFactor(t int64) float64 {
	if a.Shape == ShapeDiurnal {
		return 1 + a.Amplitude*math.Sin(2*math.Pi*float64(t)/a.Period)
	}
	return 1
}

// Validate checks an arrival process's parameters.
func (a Arrival) Validate() error {
	if a.MeanGap < 0 {
		return fmt.Errorf("workload: negative arrival MeanGap")
	}
	if a.MeanGap == 0 {
		return nil
	}
	switch a.Shape {
	case ShapeConstant:
	case ShapeDiurnal:
		if a.Period <= 0 {
			return fmt.Errorf("workload: diurnal arrival needs Period > 0")
		}
		if !(a.Amplitude >= 0 && a.Amplitude < 1) {
			return fmt.Errorf("workload: diurnal Amplitude must be in [0,1), got %g", a.Amplitude)
		}
	default:
		return fmt.Errorf("workload: unknown arrival shape %d", a.Shape)
	}
	return nil
}

// Spec declaratively describes one per-strand operation stream.
type Spec struct {
	// Ops is the operation mix, selected by cumulative weight in slice
	// order. A single op with Roll == 0 draws no op roll at all (the
	// counter and divide drivers).
	Ops []Op
	// Roll is the op-roll denominator (the legacy drivers' RandIntn
	// argument: 100, 10, 3, 2). Weights must sum to Roll.
	Roll int
	// Keys is the key distribution.
	Keys Keys
	// Order is the key-draw/op-roll order.
	Order Order
}

// KVMix returns the paper drivers' canonical lookup/insert/delete split
// out of 100: lookups get pctLookup, inserts (100-pctLookup)/2 — integer
// division — and deletes the remainder. When the non-lookup share is odd,
// the extra point goes to deletes, exactly the legacy
// `r < pctLookup+(100-pctLookup)/2` threshold arithmetic. OpLookup,
// OpInsert and OpDelete index the result.
func KVMix(pctLookup int) []Op {
	ins := (100 - pctLookup) / 2
	return []Op{
		{Name: "lookup", Weight: pctLookup},
		{Name: "insert", Weight: ins},
		{Name: "delete", Weight: 100 - pctLookup - ins},
	}
}

// Indices into KVMix's result.
const (
	OpLookup = 0
	OpInsert = 1
	OpDelete = 2
)

// KVSpec is the standard key-value workload: keys drawn first (from any
// distribution), then the KVMix roll out of 100 — the shape of every
// Figure 1/2 driver.
func KVSpec(keys Keys, pctLookup int) Spec {
	return Spec{Ops: KVMix(pctLookup), Roll: 100, Keys: keys}
}

// TenthsMix returns the Java-benchmark put/get/remove split out of 10
// (Figure 3(b)'s 2:6:2-style mixes). OpPut, OpGet and OpRemove index it.
func TenthsMix(put, get int) []Op {
	return []Op{
		{Name: "put", Weight: put},
		{Name: "get", Weight: get},
		{Name: "remove", Weight: 10 - put - get},
	}
}

// Indices into TenthsMix's result.
const (
	OpPut    = 0
	OpGet    = 1
	OpRemove = 2
)

// Validate reports whether the spec is well-formed.
func (sp Spec) Validate() error {
	if len(sp.Ops) == 0 {
		return fmt.Errorf("workload: spec has no ops")
	}
	if sp.Roll == 0 {
		if len(sp.Ops) != 1 {
			return fmt.Errorf("workload: Roll=0 requires exactly one op, got %d", len(sp.Ops))
		}
	} else {
		sum := 0
		for _, op := range sp.Ops {
			if op.Weight < 0 {
				return fmt.Errorf("workload: op %q has negative weight", op.Name)
			}
			sum += op.Weight
		}
		if sum != sp.Roll {
			return fmt.Errorf("workload: op weights sum to %d, want Roll=%d", sum, sp.Roll)
		}
	}
	k := sp.Keys
	switch k.Dist {
	case KeyNone:
	case KeyUniform:
		if k.Range <= 0 {
			return fmt.Errorf("workload: uniform keys need Range > 0")
		}
	case KeyZipfian:
		if k.Range < 2 {
			return fmt.Errorf("workload: zipfian keys need Range >= 2")
		}
		if !(k.Theta > 0 && k.Theta < 1) {
			return fmt.Errorf("workload: zipfian Theta must be in (0,1), got %g", k.Theta)
		}
	default:
		return fmt.Errorf("workload: unknown key distribution %d", k.Dist)
	}
	return nil
}

// Compiled is the validated, immutable execution form of a Spec: the
// cumulative op thresholds and the zipfian constants are precomputed once
// and shared read-only by every strand's Driver.
type Compiled struct {
	ops   []Op
	cum   []int
	roll  int
	order Order
	keys  Keys
	zipf  zipfParams
}

// Compile validates and precomputes a Spec.
func (sp Spec) Compile() (*Compiled, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{
		ops:   append([]Op(nil), sp.Ops...),
		roll:  sp.Roll,
		order: sp.Order,
		keys:  sp.Keys,
	}
	if sp.Roll > 0 {
		c.cum = make([]int, len(sp.Ops))
		sum := 0
		for i, op := range sp.Ops {
			sum += op.Weight
			c.cum[i] = sum
		}
	}
	if sp.Keys.Dist == KeyZipfian {
		c.zipf = newZipf(sp.Keys.Range, sp.Keys.Theta)
	}
	return c, nil
}

// draw draws the next (op, key) pair in the spec's declared order from a
// generator of uniform 64-bit values: a strand's RNG for a Driver, a
// splitmix64 stream for a Source. The roll draws next() mod Roll once per
// op selection — nothing at all for a single-op spec with Roll 0, like
// the legacy drivers that never rolled — and ops are selected by
// cumulative weight.
func (c *Compiled) draw(next func() uint64) (op int, key uint64) {
	if c.order == KeyThenOp {
		key = c.key(next)
	}
	if c.roll > 0 {
		r := int(next() % uint64(c.roll))
		op = len(c.cum) - 1
		for i, cum := range c.cum {
			if r < cum {
				op = i
				break
			}
		}
	}
	if c.order == OpThenKey && !c.ops[op].NoKey {
		key = c.key(next)
	}
	return op, key
}

// key draws one key from the spec's distribution.
func (c *Compiled) key(next func() uint64) uint64 {
	k := &c.keys
	switch k.Dist {
	case KeyUniform:
		return k.Offset + next()%uint64(k.Range)
	case KeyZipfian:
		// One 64-bit draw, mapped through the precomputed constants.
		u := float64(next()>>11) / (1 << 53)
		return k.Offset + uint64(c.zipf.draw(u))
	}
	return 0 // KeyNone
}

// MustCompile is Compile for statically known specs.
func MustCompile(sp Spec) *Compiled {
	c, err := sp.Compile()
	if err != nil {
		panic(err)
	}
	return c
}

// prepopMemo maps a prepopKey to its key slice. Every cell of a
// key-value or tree experiment prepopulates its structure, so the cells
// ask for the same few slices again and again; runner workers ask
// concurrently.
var prepopMemo sync.Map

// prepopKey names one prepopulation slice: the keys of keyRange, shuffled
// by seed when shuffled is set.
type prepopKey struct {
	keyRange int
	seed     uint64
	shuffled bool
}

// PrepopHalf returns every second key in [0, keyRange) in ascending order —
// the paper's standard "half full" prepopulation for hash tables. The
// slice is computed once per keyRange and shared by every caller, so it is
// read-only: a caller must not modify it.
func PrepopHalf(keyRange int) []uint64 {
	return memoized(&prepopMemo, prepopKey{keyRange: keyRange}, func() []uint64 {
		keys := make([]uint64, 0, (keyRange+1)/2)
		for k := 0; k < keyRange; k += 2 {
			keys = append(keys, uint64(k))
		}
		return keys
	})
}

// PrepopHalfShuffled returns the same keys in a deterministic
// xorshift-shuffled order. Prepopulating a red-black tree in ascending
// order is pathological in a way the paper's random workloads are not:
// with sequential node allocation the tree's upper spine lands on node
// indices 2^k-1, aliasing the whole hot path into one L1 set. Like
// PrepopHalf's, the slice is computed once per (keyRange, seed), shared
// and read-only.
func PrepopHalfShuffled(keyRange int, seed uint64) []uint64 {
	return memoized(&prepopMemo, prepopKey{keyRange, seed, true}, func() []uint64 {
		keys := slices.Clone(PrepopHalf(keyRange))
		state := seed
		for i := len(keys) - 1; i > 0; i-- {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			j := int(state % uint64(i+1))
			keys[i], keys[j] = keys[j], keys[i]
		}
		return keys
	})
}
