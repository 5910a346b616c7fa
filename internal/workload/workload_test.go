package workload

import (
	"fmt"
	"slices"
	"testing"
)

// legacyKVOp reproduces the pre-refactor driver switch verbatim:
//
//	switch { case r < pct: lookup; case r < pct+(100-pct)/2: insert; default: delete }
//
// This is the ground truth the declarative mix must match.
func legacyKVOp(r, pctLookup int) int {
	switch {
	case r < pctLookup:
		return OpLookup
	case r < pctLookup+(100-pctLookup)/2:
		return OpInsert
	default:
		return OpDelete
	}
}

// KVMix's split semantics are pinned: lookups get pctLookup points of the
// 100-roll, inserts floor((100-pct)/2), and deletes the remainder — so an
// odd non-lookup share gives deletes the extra point, exactly the legacy
// integer-threshold arithmetic.
func TestKVMixSplitSemantics(t *testing.T) {
	for pct := 0; pct <= 100; pct++ {
		ops := KVMix(pct)
		ins := (100 - pct) / 2
		del := 100 - pct - ins
		if ops[OpLookup].Weight != pct || ops[OpInsert].Weight != ins || ops[OpDelete].Weight != del {
			t.Fatalf("pct=%d: weights %d/%d/%d, want %d/%d/%d",
				pct, ops[OpLookup].Weight, ops[OpInsert].Weight, ops[OpDelete].Weight, pct, ins, del)
		}
		if sum := ops[0].Weight + ops[1].Weight + ops[2].Weight; sum != 100 {
			t.Fatalf("pct=%d: weights sum to %d, want 100", pct, sum)
		}
		if (100-pct)%2 == 1 && del != ins+1 {
			t.Fatalf("pct=%d: odd remainder must go to deletes (ins=%d del=%d)", pct, ins, del)
		}
	}
}

// Every roll value must select the same op the legacy switch selected, for
// every lookup percentage — the cumulative-threshold scan and the legacy
// comparison chain are the same function.
func TestKVMixMatchesLegacyThresholds(t *testing.T) {
	for pct := 0; pct <= 100; pct++ {
		c := MustCompile(KVSpec(Uniform(16), pct))
		for r := 0; r < 100; r++ {
			got := c.opForRoll(r)
			want := legacyKVOp(r, pct)
			if got != want {
				t.Fatalf("pct=%d r=%d: op %d, want %d", pct, r, got, want)
			}
		}
	}
}

// opForRoll exposes the cumulative scan for threshold tests.
func (c *Compiled) opForRoll(r int) int {
	for i, cum := range c.cum {
		if r < cum {
			return i
		}
	}
	return len(c.cum) - 1
}

func TestTenthsMix(t *testing.T) {
	ops := TenthsMix(2, 6)
	if ops[OpPut].Weight != 2 || ops[OpGet].Weight != 6 || ops[OpRemove].Weight != 2 {
		t.Fatalf("TenthsMix(2,6) = %+v", ops)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{},                                    // no ops
		{Ops: []Op{{Weight: 1}, {Weight: 1}}}, // Roll=0 with two ops
		{Ops: []Op{{Weight: 3}}, Roll: 2},     // weights != roll
		{Ops: []Op{{Weight: 1}}, Roll: 1, Keys: Keys{Dist: KeyUniform}},         // uniform range 0
		{Ops: []Op{{Weight: 1}}, Roll: 1, Keys: Zipfian(100, 0)},                // theta out of range
		{Ops: []Op{{Weight: 1}}, Roll: 1, Keys: Zipfian(100, 1)},                // theta out of range
		{Ops: []Op{{Weight: 1}}, Roll: 1, Keys: Zipfian(1, 0.9)},                // range too small
		{Ops: []Op{{Weight: 1}}, Roll: 1, Keys: Keys{Dist: Dist(99), Range: 4}}, // unknown distribution
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("spec %d validated: %+v", i, sp)
		}
	}
	good := Spec{Ops: KVMix(50), Roll: 100, Keys: Zipfian(1024, 0.99)}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

// Keys.String and Arrival.String are cache-key components; pin their
// canonical forms so cache entries never silently alias across formats.
func TestCanonicalStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Uniform(256).String(), "uniform:256"},
		{UniformOffset(256, 1).String(), "uniform:256+1"},
		{Zipfian(4096, 0.99).String(), "zipf:4096:0.99"},
		{Keys{}.String(), "none"},
		{Arrival{}.String(), "closed"},
		{Arrival{MeanGap: 800, Seed: 3}.String(), "open:800:3"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("canonical string %q, want %q", c.got, c.want)
		}
	}
}

// PrepopHalf and its shuffled twin cover the same key set; the shuffle is
// deterministic in the seed.
func TestPrepop(t *testing.T) {
	plain := PrepopHalf(256)
	if len(plain) != 128 || plain[0] != 0 || plain[127] != 254 {
		t.Fatalf("PrepopHalf: len=%d first=%d last=%d", len(plain), plain[0], plain[127])
	}
	a := PrepopHalfShuffled(256, 7)
	b := PrepopHalfShuffled(256, 7)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("shuffle not deterministic in the seed")
	}
	seen := map[uint64]bool{}
	for _, k := range a {
		if k%2 != 0 || seen[k] {
			t.Fatalf("bad shuffled key %d", k)
		}
		seen[k] = true
	}
	if len(seen) != 128 {
		t.Fatalf("shuffled set has %d keys, want 128", len(seen))
	}
	if fmt.Sprint(a) == fmt.Sprint(plain) {
		t.Fatal("shuffle left keys in ascending order")
	}
	// Both slices are computed once and shared; the shuffle works on a
	// copy, so the ascending slice stays ascending.
	if again := PrepopHalf(256); &again[0] != &plain[0] || !slices.IsSorted(again) {
		t.Fatal("PrepopHalf's shared slice was recomputed or reordered")
	}
	if again := PrepopHalfShuffled(256, 7); &again[0] != &a[0] {
		t.Fatal("PrepopHalfShuffled recomputed its slice")
	}
}
