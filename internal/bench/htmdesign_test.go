package bench

import (
	"bytes"
	"testing"

	"rocktm/internal/sim"
)

// htmTestOptions keeps the design-space sweep cheap enough for the unit
// suite: two thread counts, a few hundred ops per thread.
func htmTestOptions() Options {
	return Options{Threads: []int{1, 2}, OpsPerThread: 120, Seed: 1}
}

// TestHTMDesignFigureDeterministic renders the full sweep twice and
// demands byte identity — the same reproducibility bar every other
// figure meets, now across all six design points.
func TestHTMDesignFigureDeterministic(t *testing.T) {
	render := func() []byte {
		f, err := HTMDesignFigure(htmTestOptions())
		if err != nil {
			t.Fatalf("HTMDesignFigure: %v", err)
		}
		var buf bytes.Buffer
		f.Render(&buf)
		f.CSV(&buf)
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("two renders of the htmdesign figure differ")
	}
}

// TestHTMDesignFigureShape pins the sweep's cross product: one curve per
// (design point, workload, policy) triple, every design point named.
func TestHTMDesignFigureShape(t *testing.T) {
	f, err := HTMDesignFigure(htmTestOptions())
	if err != nil {
		t.Fatalf("HTMDesignFigure: %v", err)
	}
	wantCurves := len(sim.DesignPointNames()) * len(htmDesignWorkloads()) * len(htmDesignPolicies())
	if len(f.Curves) != wantCurves {
		t.Fatalf("figure has %d curves, want %d", len(f.Curves), wantCurves)
	}
	seen := map[string]bool{}
	for _, c := range f.Curves {
		seen[c.Name] = true
		if len(c.Points) != len(htmTestOptions().Threads) {
			t.Errorf("curve %s has %d points, want %d", c.Name, len(c.Points), len(htmTestOptions().Threads))
		}
	}
	for _, design := range sim.DesignPointNames() {
		if !seen[design+"/rbtree/paper"] {
			t.Errorf("missing curve %s/rbtree/paper", design)
		}
	}
}

// TestHTMDesignCellDigestsKeyDesign pins the cache-safety property the
// sweep depends on: specs that differ only in design point must carry
// different SimDigests, or the runner cache would serve one design's
// result for another.
func TestHTMDesignCellDigestsKeyDesign(t *testing.T) {
	o := htmTestOptions()
	wl := htmDesignWorkloads()[0]
	digests := map[string]string{}
	for _, design := range sim.DesignPointNames() {
		cfg := htmDesignCfg(2, wl.kv.memWords, o.Seed, design, wl.faults)
		d := cfg.Digest()
		if prev, ok := digests[d]; ok {
			t.Errorf("designs %s and %s share config digest %s", prev, design, d)
		}
		digests[d] = design
	}
	if len(digests) < 4 {
		t.Errorf("only %d distinct design digests (rock + at least 3 non-default required)", len(digests))
	}
}

// TestHTMDesignCellDigestsKeyFaults pins the other half of the sweep's
// cache safety: cells that differ only in the workload's fault profile
// (rbtree vs rbtree-evict) must carry different config digests, or the
// runner cache would serve an unfaulted result for a faulted cell. Also
// asserts the evict profile is actually reachable from the sweep.
func TestHTMDesignCellDigestsKeyFaults(t *testing.T) {
	o := htmTestOptions()
	var plain, evict *htmWorkload
	for i := range htmDesignWorkloads() {
		wl := htmDesignWorkloads()[i]
		switch {
		case wl.faults == "evict":
			evict = &wl
		case wl.name == "rbtree":
			plain = &wl
		}
	}
	if evict == nil {
		t.Fatal("no htmdesign workload carries the evict fault profile")
	}
	if plain == nil {
		t.Fatal("no unfaulted rbtree workload")
	}
	a := htmDesignCfg(2, plain.kv.memWords, o.Seed, "rock", plain.faults)
	b := htmDesignCfg(2, evict.kv.memWords, o.Seed, "rock", evict.faults)
	if a.Digest() == b.Digest() {
		t.Fatalf("evict-faulted cell shares config digest %s with the unfaulted cell", a.Digest())
	}
	if !b.Faults.Enabled() {
		t.Fatal("evict workload's config carries no enabled fault plan")
	}
}
