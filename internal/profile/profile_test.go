package profile

import "testing"

// TestDeterministicOpSequence: the whole methodology rests on the two
// phases replaying the same operations.
func TestDeterministicOpSequence(t *testing.T) {
	cfg := Config{TreeKeys: 256, Ops: 200, PctGet: 70, PctInsert: 15, Seed: 9}
	a := opSequence(cfg)
	b := opSequence(cfg)
	if len(a) != len(b) || len(a) != 200 {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs across replays", i)
		}
	}
	cfg.Seed = 10
	c := opSequence(cfg)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

// TestRunCapturesProfiles checks the Section 6.1 pipeline end to end on a
// small tree: every op gets a profile, reads are non-empty for non-trivial
// ops, and the paper's key negative results hold at this scale (no L1-set
// overflow, no store-bank overflow).
func TestRunCapturesProfiles(t *testing.T) {
	cfg := Config{TreeKeys: 512, Ops: 300, PctGet: 70, PctInsert: 15, Seed: 42}
	profiles := Run(cfg)
	if len(profiles) != cfg.Ops {
		t.Fatalf("%d profiles for %d ops", len(profiles), cfg.Ops)
	}
	for i, p := range profiles {
		if p.ReadLines == 0 {
			t.Fatalf("op %d (%v) recorded an empty read set", i, p.Kind)
		}
	}
	sum := Summarize(profiles)
	if sum.Ops != cfg.Ops {
		t.Fatalf("summary ops = %d", sum.Ops)
	}
	if sum.MaxLinesPerSet[0] > 4 || sum.MaxLinesPerSet[1] > 4 {
		t.Errorf("a 512-key tree overflowed an L1 set: %v", sum.MaxLinesPerSet)
	}
	if sum.BankOverflows[0]+sum.BankOverflows[1] != 0 {
		t.Errorf("store-bank overflows on a small tree: %v", sum.BankOverflows)
	}
	// Writes exist for mutating ops.
	foundWrite := false
	for _, p := range profiles {
		if p.Kind != OpGet && p.WriteWords > 0 {
			foundWrite = true
			break
		}
	}
	if !foundWrite {
		t.Error("no mutating op recorded any writes")
	}
}
