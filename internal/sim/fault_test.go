package sim

import (
	"reflect"
	"testing"

	"rocktm/internal/cps"
)

// runFaultWorkload executes a fixed single-strand transactional workload
// under the given fault plan and returns the per-CPS abort histogram and
// the final virtual clock. The workload pre-warms every page and line, so
// with no fault plan (and the probabilistic organic aborts disabled by
// newFaultTestMachine) every transaction commits — any abort observed is
// the injector's doing.
func runFaultWorkload(plan FaultPlan, txs, linesPerTx int) (map[cps.Bits]int, int64) {
	return runFaultWorkloadSeeded(plan, DefaultConfig(1).Seed, txs, linesPerTx)
}

// runFaultWorkloadSeeded is runFaultWorkload on a machine with the given
// seed.
func runFaultWorkloadSeeded(plan FaultPlan, seed uint64, txs, linesPerTx int) (map[cps.Bits]int, int64) {
	cfg := DefaultConfig(1)
	cfg.Seed = seed
	cfg.MemWords = 1 << 18
	cfg.MaxCycles = 1 << 40
	cfg.CTIAbortProb = 0
	cfg.UCTIAbortProb = 0
	cfg.StoreAfterMissProb = 0
	cfg.Faults = plan
	m := New(cfg)
	const lines = 48 // well under both L1 and micro-DTLB capacity
	a := m.Mem().Alloc(lines*WordsPerLine, WordsPerLine)
	hist := map[cps.Bits]int{}
	m.Run(func(s *Strand) {
		for i := 0; i < lines; i++ {
			s.Store(a+Addr(i*WordsPerLine), 1) // warm TLB, write permission, caches
		}
		for k := 0; k < txs; k++ {
			s.TxBegin()
			ok := true
			for j := 0; j < linesPerTx; j++ {
				addr := a + Addr(((k+j)%lines)*WordsPerLine)
				if _, ld := s.TxLoad(addr); !ld {
					ok = false
					break
				}
				if !s.TxStore(addr, Word(k)) {
					ok = false
					break
				}
			}
			if ok && !s.TxCommit() {
				ok = false
			}
			if !ok {
				hist[s.CPS()]++
			}
		}
	})
	return hist, m.MaxClock()
}

// countWith sums the aborts whose CPS value includes bit.
func countWith(hist map[cps.Bits]int, bit cps.Bits) int {
	n := 0
	for c, v := range hist {
		if c.Has(bit) {
			n += v
		}
	}
	return n
}

// TestFaultBaselineCommitsEverything establishes the control: with a zero
// plan the warmed workload never aborts, so the per-profile tests below
// attribute every abort to the injector.
func TestFaultBaselineCommitsEverything(t *testing.T) {
	hist, _ := runFaultWorkload(FaultPlan{}, 200, 4)
	if len(hist) != 0 {
		t.Fatalf("baseline workload aborted: %v", hist)
	}
}

// TestFaultInterruptsInjectASYNC checks the spurious-interrupt fault: the
// injected dooms must surface as ASYNC aborts.
func TestFaultInterruptsInjectASYNC(t *testing.T) {
	hist, _ := runFaultWorkload(FaultPlan{InterruptProb: 0.05}, 200, 4)
	if n := countWith(hist, cps.ASYNC); n == 0 {
		t.Fatalf("no ASYNC aborts under the interrupt fault: %v", hist)
	}
	for c := range hist {
		if !c.Has(cps.ASYNC) {
			t.Errorf("unexpected abort cause %v under the interrupt fault", c)
		}
	}
}

// TestFaultTLBShootdownInjectsST checks the micro-DTLB shootdown fault:
// the evicted mapping makes the next transactional store miss and abort
// with ST through the organic Section 3.1 path — and because the failing
// access re-warms the mapping, the workload still makes progress.
func TestFaultTLBShootdownInjectsST(t *testing.T) {
	hist, _ := runFaultWorkload(FaultPlan{TLBShootdownProb: 0.5}, 200, 4)
	if n := countWith(hist, cps.ST); n == 0 {
		t.Fatalf("no ST aborts under the TLB-shootdown fault: %v", hist)
	}
	for c := range hist {
		if c != cps.ST {
			t.Errorf("unexpected abort cause %v under the TLB-shootdown fault", c)
		}
	}
}

// TestFaultInvalidationInjectsCOH checks the adversarial-invalidation
// fault: transactions with marked lines are doomed with COH.
func TestFaultInvalidationInjectsCOH(t *testing.T) {
	hist, _ := runFaultWorkload(FaultPlan{InvalidateProb: 0.1}, 200, 4)
	if n := countWith(hist, cps.COH); n == 0 {
		t.Fatalf("no COH aborts under the invalidation fault: %v", hist)
	}
	for c := range hist {
		if !c.Has(cps.COH) {
			t.Errorf("unexpected abort cause %v under the invalidation fault", c)
		}
	}
}

// TestFaultSqueezeInjectsOverflow checks the capacity squeeze: with the
// per-bank store queue squeezed to 2 entries, a transaction writing 8
// distinct lines must overflow (ST|SIZ), while the unsqueezed machine
// commits the identical workload.
func TestFaultSqueezeInjectsOverflow(t *testing.T) {
	if hist, _ := runFaultWorkload(FaultPlan{}, 50, 8); len(hist) != 0 {
		t.Fatalf("8-line transactions abort without the squeeze: %v", hist)
	}
	hist, _ := runFaultWorkload(FaultPlan{SqueezeStoreQueue: 2}, 50, 8)
	if hist[cps.ST|cps.SIZ] == 0 {
		t.Fatalf("no ST|SIZ overflows under the store-queue squeeze: %v", hist)
	}
}

// TestFaultEvictProfileInjectsLD checks the named evict profile's decision
// table on the default (zero-tolerance) design: every injected displacement
// of a marked line dooms the transaction with an LD-flavoured CPS (the same
// reason an organic capacity eviction produces), and nothing else fires.
// The sticky-design half of the table — absorption up to the bound, then
// LD|SIZ — is pinned by TestEvictMarkedFaultRespectsDesign in design_test.go.
func TestFaultEvictProfileInjectsLD(t *testing.T) {
	p := FaultProfile("evict")
	if p.EvictMarkedProb <= 0 {
		t.Fatalf("evict profile does not enable EvictMarkedProb: %+v", p)
	}
	hist, _ := runFaultWorkload(p, 400, 4)
	if n := countWith(hist, cps.LD); n == 0 {
		t.Fatalf("no LD aborts under the evict profile: %v", hist)
	}
	for c := range hist {
		if !c.Has(cps.LD) {
			t.Errorf("unexpected abort cause %v under the evict profile", c)
		}
	}
}

// TestFaultDeterminism checks that the fault schedule is a pure function
// of the plan and the machine seed: identical plans replay bit-for-bit,
// and another machine seed draws another schedule.
func TestFaultDeterminism(t *testing.T) {
	plan := FaultPlan{InterruptProb: 0.03, TLBShootdownProb: 0.2, InvalidateProb: 0.05}
	h1, c1 := runFaultWorkload(plan, 300, 4)
	h2, c2 := runFaultWorkload(plan, 300, 4)
	if c1 != c2 || !reflect.DeepEqual(h1, h2) {
		t.Fatalf("same plan diverged: clocks %d vs %d, hists %v vs %v", c1, c2, h1, h2)
	}
	h3, c3 := runFaultWorkloadSeeded(plan, 99, 300, 4)
	if c1 == c3 && reflect.DeepEqual(h1, h3) {
		t.Fatal("changing the machine seed changed nothing (suspiciously)")
	}
}

// TestFaultProfiles checks the named-profile surface the policy ablation
// uses: the baseline is inert, every other profile is enabled, and the
// digest of a faulted config differs from the baseline's (so the runner
// cache never serves one profile's result for another).
func TestFaultProfiles(t *testing.T) {
	names := FaultProfileNames()
	if len(names) < 4 || names[0] != "none" {
		t.Fatalf("FaultProfileNames() = %v, want none first and >=3 fault profiles", names)
	}
	base := DefaultConfig(1)
	digests := map[string]bool{}
	for _, n := range names {
		p := FaultProfile(n)
		if n == "none" {
			if p.Enabled() {
				t.Errorf("profile none is not inert: %+v", p)
			}
		} else if !p.Enabled() {
			t.Errorf("profile %s is inert", n)
		}
		cfg := base
		cfg.Faults = p
		d := cfg.Digest()
		if digests[d] {
			t.Errorf("profile %s: config digest collides with another profile", n)
		}
		digests[d] = true
	}
	defer func() {
		if recover() == nil {
			t.Error("FaultProfile(unknown) did not panic")
		}
	}()
	FaultProfile("no-such-profile")
}
