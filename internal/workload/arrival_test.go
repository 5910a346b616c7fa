package workload

import (
	"testing"
)

// The arrivals render canonically — these strings enter runner.Spec.Params
// as cache keys, so the forms are pinned.
func TestArrivalCanonicalStrings(t *testing.T) {
	cases := []struct {
		a    Arrival
		want string
	}{
		{Arrival{}, "closed"},
		{Arrival{MeanGap: 200, Seed: 9}, "open:200:9"},
		{Diurnal(512, 7, 1e6, 0.5), "diurnal:512:7:1e+06:0.5"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// Shape parameters are validated through Arrival.Validate.
func TestArrivalShapeValidation(t *testing.T) {
	bad := []Arrival{
		{MeanGap: -1},
		Diurnal(100, 1, 0, 0.5),          // Period <= 0
		Diurnal(100, 1, 1e6, 1.0),        // Amplitude out of [0,1)
		Diurnal(100, 1, 1e6, -0.1),       // negative Amplitude
		{MeanGap: 100, Shape: Shape(99)}, // unknown shape
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d (%+v): invalid arrival accepted", i, a)
		}
	}
	for i, a := range []Arrival{
		{},
		{MeanGap: 100, Seed: 1},
		Diurnal(100, 1, 1e6, 0.9),
	} {
		if err := a.Validate(); err != nil {
			t.Errorf("case %d (%+v): valid arrival rejected: %v", i, a, err)
		}
	}
}

// schedule returns the first n arrival times a Source draws for a.
func schedule(a Arrival, n int) []int64 {
	src := MustCompile(KVSpec(Uniform(64), 50)).Source(1, a)
	out := make([]int64, n)
	for i := range out {
		out[i] = src.NextArrival()
	}
	return out
}

// equalSchedules reports whether two arrival schedules are identical.
func equalSchedules(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Arrivals are seed-stable: the same arrival produces the same schedule,
// and different arrival seeds produce different schedules — for both
// shapes.
func TestShapedArrivalSeedStability(t *testing.T) {
	shapes := map[string]func(seed uint64) Arrival{
		"constant": func(seed uint64) Arrival { return Arrival{MeanGap: 300, Seed: seed} },
		"diurnal":  func(seed uint64) Arrival { return Diurnal(300, seed, 1e5, 0.8) },
	}
	for name, mk := range shapes {
		a, b := schedule(mk(1), 300), schedule(mk(1), 300)
		if !equalSchedules(a, b) {
			t.Fatalf("%s: same seed produced different schedules", name)
		}
		if equalSchedules(a, schedule(mk(2), 300)) {
			t.Errorf("%s: seeds 1 and 2 produced identical schedules", name)
		}
	}
}

// opStream draws n (arrival, op, key) steps from a Source and returns the
// op/key sequence, so it can be compared across arrival processes.
func opStream(c *Compiled, a Arrival, n int) [][2]uint64 {
	src := c.Source(1, a)
	out := make([][2]uint64, n)
	for i := range out {
		src.NextArrival()
		op, key := src.Next()
		out[i] = [2]uint64{uint64(op), key}
	}
	return out
}

// Turning on open-loop arrivals must not change which ops and keys are
// drawn: the arrival process runs on its own splitmix64 stream, never the
// op/key stream. (Timing changes; the op/key sequence cannot.)
func TestOpenLoopDoesNotPerturbOpStream(t *testing.T) {
	c := MustCompile(KVSpec(Uniform(256), 30))
	want := digest([][][2]uint64{opStream(c, Arrival{}, 400)})
	if got := digest([][][2]uint64{opStream(c, Arrival{MeanGap: 700, Seed: 42}, 400)}); got != want {
		t.Fatalf("open-loop arrivals perturbed the op/key stream: %s vs %s", got, want)
	}
}

// The rate envelope must never perturb the op/key stream either: a
// diurnal run draws exactly the ops and keys of the closed-loop twin.
func TestShapedArrivalsDoNotPerturbOpStream(t *testing.T) {
	c := MustCompile(KVSpec(Zipfian(512, 0.99), 30))
	want := digest([][][2]uint64{opStream(c, Arrival{}, 400)})
	if got := digest([][][2]uint64{opStream(c, Diurnal(700, 42, 5e4, 0.9), 400)}); got != want {
		t.Errorf("diurnal arrivals perturbed the op/key stream: %s vs %s", got, want)
	}
}

// An open-loop arrival process advances the arrival clock (every gap is
// at least one cycle) and different arrival seeds give different
// schedules.
func TestOpenLoopAdvancesClock(t *testing.T) {
	s1 := schedule(Arrival{MeanGap: 300, Seed: 1}, 200)
	if last := s1[len(s1)-1]; last < 200 {
		t.Fatalf("200 open-loop arrivals advanced the clock only %d cycles", last)
	}
	for i := 1; i < len(s1); i++ {
		if s1[i] <= s1[i-1] {
			t.Fatalf("arrival %d at %d does not follow %d", i, s1[i], s1[i-1])
		}
	}
	if equalSchedules(s1, schedule(Arrival{MeanGap: 300, Seed: 2}, 200)) {
		t.Error("different arrival seeds produced identical schedules")
	}
}

// The diurnal envelope modulates the schedule: with a large amplitude the
// arrival schedule differs from the constant-shape schedule with the same
// seed, but with amplitude 0 it is bit-identical (the envelope divides by
// exactly 1).
func TestDiurnalEnvelopeEffect(t *testing.T) {
	flat := schedule(Arrival{MeanGap: 300, Seed: 7}, 500)
	zero := schedule(Diurnal(300, 7, 1e5, 0), 500)
	for i := range flat {
		if flat[i] != zero[i] {
			t.Fatalf("amplitude-0 diurnal diverged from constant at %d: %d vs %d", i, zero[i], flat[i])
		}
	}
	if equalSchedules(flat, schedule(Diurnal(300, 7, 1e5, 0.9), 500)) {
		t.Error("amplitude-0.9 diurnal schedule identical to constant schedule")
	}
}

// A Source keeps its streams apart: the primary (op, key) stream is a
// pure function of (spec, seed) — consuming arrivals and extra keys does
// not move it — and the extra stream is independent of the primary.
func TestSourceStreamSeparation(t *testing.T) {
	c := MustCompile(KVSpec(Zipfian(512, 0.99), 30))
	a := Diurnal(300, 7, 1e5, 0.5)
	plain := c.Source(1, a)
	noisy := c.Source(1, a)
	for i := 0; i < 500; i++ {
		// The noisy twin consumes arrivals and extra draws between ops.
		noisy.NextArrival()
		noisy.ExtraKey()
		noisy.ExtraRoll(100)
		op1, k1 := plain.Next()
		op2, k2 := noisy.Next()
		if op1 != op2 || k1 != k2 {
			t.Fatalf("primary stream perturbed at op %d: (%d,%d) vs (%d,%d)", i, op1, k1, op2, k2)
		}
	}
	// Distinct source seeds give distinct primary streams.
	s1 := c.Source(1, a)
	s2 := c.Source(2, a)
	diff := false
	for i := 0; i < 100; i++ {
		o1, k1 := s1.Next()
		o2, k2 := s2.Next()
		if o1 != o2 || k1 != k2 {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("source seeds 1 and 2 produced identical primary streams")
	}
}

// Source keys stay in range for every distribution, and closed-loop
// NextArrival degrades to back-to-back (constant) arrivals.
func TestSourceKeyRangeAndClosedLoop(t *testing.T) {
	for name, keys := range map[string]Keys{
		"uniform": Uniform(256),
		"zipf":    Zipfian(256, 0.9),
	} {
		src := MustCompile(KVSpec(keys, 50)).Source(3, Arrival{})
		for i := 0; i < 2000; i++ {
			_, key := src.Next()
			if key >= 256 {
				t.Fatalf("%s: key %d out of range", name, key)
			}
		}
	}
	src := MustCompile(KVSpec(Uniform(16), 50)).Source(1, Arrival{})
	if a1, a2 := src.NextArrival(), src.NextArrival(); a1 != 0 || a2 != 0 {
		t.Fatalf("closed-loop arrivals = %d,%d, want 0,0", a1, a2)
	}
}
