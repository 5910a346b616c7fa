package policy_test

import (
	"strings"
	"testing"

	"rocktm/internal/cps"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
)

// TestBuiltinDecisionsPerCPSBit pins each built-in policy's verdict for
// every one of the twelve Table-1 failure reasons (plus the combinations
// the paper calls out), so a policy regression shows up as a named bit,
// not a throughput drift. Fresh policy instances are used per case: the
// adaptive policy's stance depends on history, and these are its
// *cold-start* verdicts (it starts from the paper policy's reactions).
func TestBuiltinDecisionsPerCPSBit(t *testing.T) {
	type want struct {
		action policy.Action
		score  float64
	}
	cases := []struct {
		c cps.Bits
		// Expected verdicts under policy.DefaultTuning (the TLE/PhTM
		// flavour: UCTIBackoff on, TCC → Wait at half charge).
		naive, paper, adaptive want
	}{
		{cps.EXOG, want{policy.Retry, 1}, want{policy.Retry, 1}, want{policy.Retry, 0.5}},
		{cps.COH, want{policy.Retry, 1}, want{policy.Backoff, 1}, want{policy.Backoff, 1}},
		{cps.TCC, want{policy.Wait, 0.5}, want{policy.Wait, 0.5}, want{policy.Wait, 0.5}},
		{cps.INST, want{policy.Retry, 1}, want{policy.Fallback, 0}, want{policy.Fallback, 0}},
		{cps.PREC, want{policy.Retry, 1}, want{policy.Fallback, 0}, want{policy.Fallback, 0}},
		{cps.ASYNC, want{policy.Retry, 1}, want{policy.Retry, 1}, want{policy.Retry, 0.5}},
		{cps.SIZ, want{policy.Retry, 1}, want{policy.Retry, 1}, want{policy.Retry, 1}},
		{cps.LD, want{policy.Retry, 1}, want{policy.Retry, 1}, want{policy.Retry, 1}},
		{cps.ST, want{policy.Retry, 1}, want{policy.Retry, 1}, want{policy.Retry, 1}},
		{cps.CTI, want{policy.Retry, 1}, want{policy.Retry, 1}, want{policy.Retry, 0.5}},
		{cps.FP, want{policy.Retry, 1}, want{policy.Fallback, 0}, want{policy.Fallback, 0}},
		{cps.UCTI, want{policy.Retry, 1}, want{policy.Retry, 0.5}, want{policy.Retry, 0.5}},
		// UCTI with a COH companion: paper (with UCTIBackoff, the TLE
		// wrinkle) backs off; adaptive always retries UCTI immediately.
		{cps.UCTI | cps.COH, want{policy.Retry, 1}, want{policy.Backoff, 0.5}, want{policy.Retry, 0.5}},
		// ST|SIZ store-queue overflow and LD|PREC unmapped-page loads: the
		// GiveUp bits win for LD|PREC, capacity retries for ST|SIZ.
		{cps.ST | cps.SIZ, want{policy.Retry, 1}, want{policy.Retry, 1}, want{policy.Retry, 1}},
		{cps.LD | cps.PREC, want{policy.Retry, 1}, want{policy.Fallback, 0}, want{policy.Fallback, 0}},
	}
	for _, tc := range cases {
		for _, pc := range []struct {
			name string
			want want
		}{
			{"naive", tc.naive},
			{"paper", tc.paper},
			{"adaptive", tc.adaptive},
		} {
			p := policy.MustNew(pc.name, policy.DefaultTuning())
			d := p.Decide(0, 0, tc.c)
			if d.Action != pc.want.action {
				t.Errorf("%s(%v): action = %v, want %v", pc.name, tc.c, d.Action, pc.want.action)
			}
			if pc.want.action != policy.Fallback && d.Score != pc.want.score {
				// (A Fallback's score is irrelevant: the engine stops.)
				t.Errorf("%s(%v): score = %g, want %g", pc.name, tc.c, d.Score, pc.want.score)
			}
		}
	}
}

// TestEngineBudgetExhaustion checks the shared exhaustion rule: full-point
// failures exhaust an integer budget exactly at the budget'th failure.
func TestEngineBudgetExhaustion(t *testing.T) {
	tun := policy.DefaultTuning()
	tun.Budget = 3
	p := policy.MustNew("paper", tun)
	eng := policy.Start(p, 0)
	for i := 0; i < 2; i++ {
		if act := eng.OnFailure(nil, cps.ASYNC); act != policy.Retry {
			t.Fatalf("failure %d: action = %v, want retry", i, act)
		}
	}
	if eng.Exhausted() {
		t.Fatal("exhausted before budget reached")
	}
	if act := eng.OnFailure(nil, cps.ASYNC); act != policy.Fallback {
		t.Fatalf("3rd failure: action = %v, want fallback", act)
	}
	if !eng.Exhausted() {
		t.Fatal("not exhausted after budget reached")
	}
}

// TestEngineUCTIHalfWeight checks the Section 8.1 "8 and one half"
// accounting: UCTI failures charge half, so a budget of 8 tolerates 16.
func TestEngineUCTIHalfWeight(t *testing.T) {
	p := policy.MustNew("paper", policy.DefaultTuning()) // budget 8, UCTI 0.5
	eng := policy.Start(p, 0)
	for i := 0; i < 15; i++ {
		if act := eng.OnFailure(nil, cps.UCTI); act != policy.Retry {
			t.Fatalf("UCTI failure %d: action = %v, want retry", i, act)
		}
	}
	if act := eng.OnFailure(nil, cps.UCTI); act != policy.Fallback {
		t.Fatalf("16th UCTI failure: action = %v, want fallback", act)
	}
	if got := eng.Score(); got != 8 {
		t.Fatalf("score = %g, want 8", got)
	}
}

// TestEngineWaitNeverConvertsToFallback pins the Wait contract: even with
// the budget exhausted, OnFailure hands Wait back to the caller (whose
// system-specific wait must happen before the budget re-check) — the
// ordering the pre-engine loops used, preserved for cycle identity.
func TestEngineWaitNeverConvertsToFallback(t *testing.T) {
	tun := policy.DefaultTuning()
	tun.Budget = 1
	tun.TCCWeight = 1
	p := policy.MustNew("paper", tun)
	eng := policy.Start(p, 0)
	if act := eng.OnFailure(nil, cps.TCC); act != policy.Wait {
		t.Fatalf("TCC at exhausted budget: action = %v, want wait", act)
	}
	if !eng.Exhausted() {
		t.Fatal("budget should be exhausted after the charged wait")
	}
}

// TestEngineBackoffChargesCycles checks that Backoff and Throttle verdicts
// advance the strand's virtual clock (the randomized exponential delay),
// while Retry verdicts do not.
func TestEngineBackoffChargesCycles(t *testing.T) {
	m := sim.New(sim.DefaultConfig(1))
	m.Run(func(s *sim.Strand) {
		p := policy.MustNew("paper", policy.DefaultTuning())
		eng := policy.Start(p, 0)
		before := s.Clock()
		eng.OnFailure(s, cps.ASYNC) // Retry: no delay
		if s.Clock() != before {
			t.Errorf("retry charged %d cycles, want 0", s.Clock()-before)
		}
		before = s.Clock()
		eng.OnFailure(s, cps.COH) // Backoff: must charge
		if s.Clock() == before {
			t.Error("backoff charged no cycles")
		}
	})
}

// TestAdaptiveCapacityHopeless drives one site through a full window of
// capacity failures with no hardware commit: the adaptive policy must
// flip from the paper's retry-and-warm bet to immediate fallback.
func TestAdaptiveCapacityHopeless(t *testing.T) {
	p := policy.NewAdaptive(policy.DefaultTuning())
	const site = 7
	var sawFallback int
	for i := 0; i < 40; i++ {
		d := p.Decide(site, i, cps.SIZ)
		switch d.Action {
		case policy.Retry:
			if sawFallback > 0 {
				t.Fatalf("failure %d: retry after the hopeless verdict", i)
			}
		case policy.Fallback:
			sawFallback++
		default:
			t.Fatalf("failure %d: unexpected action %v", i, d.Action)
		}
	}
	if sawFallback == 0 {
		t.Fatal("a window of pure capacity failures never produced a fallback verdict")
	}
	// A hardware commit after retries is direct evidence the bet pays
	// again: the hopeless verdict must lift immediately.
	p.Done(site, 3, false)
	if d := p.Decide(site, 0, cps.SIZ); d.Action != policy.Retry {
		t.Fatalf("after commit: action = %v, want retry", d.Action)
	}
	// Another site is unaffected by site 7's history.
	if d := p.Decide(9, 0, cps.SIZ); d.Action != policy.Retry {
		t.Fatalf("fresh site: action = %v, want retry", d.Action)
	}
}

// TestAdaptiveCOHEscalatesToThrottle drives a site through a
// COH-dominated window: Backoff must escalate to Throttle.
func TestAdaptiveCOHEscalatesToThrottle(t *testing.T) {
	p := policy.NewAdaptive(policy.DefaultTuning())
	const site = 3
	var sawThrottle bool
	for i := 0; i < 40; i++ {
		d := p.Decide(site, i, cps.COH)
		switch d.Action {
		case policy.Backoff:
			if sawThrottle {
				t.Fatalf("failure %d: de-escalated to backoff mid-storm", i)
			}
		case policy.Throttle:
			sawThrottle = true
		default:
			t.Fatalf("failure %d: unexpected action %v", i, d.Action)
		}
	}
	if !sawThrottle {
		t.Fatal("a COH-dominated window never escalated to throttle")
	}
}

// TestAdaptiveTCCNotRecorded checks that the system's own explicit aborts
// are not treated as evidence about a site's hardware viability.
func TestAdaptiveTCCNotRecorded(t *testing.T) {
	p := policy.NewAdaptive(policy.DefaultTuning())
	for i := 0; i < 100; i++ {
		if d := p.Decide(5, i, cps.TCC); d.Action != policy.Wait {
			t.Fatalf("TCC: action = %v, want wait", d.Action)
		}
	}
	if h := p.SiteHistogram(5); h != nil {
		t.Fatalf("TCC aborts were recorded: histogram %v", h)
	}
}

// TestRegistry checks New's name table: each built-in name builds a fresh
// policy that reports that name, and an unknown name errors with the list
// of known ones.
func TestRegistry(t *testing.T) {
	for _, name := range []string{"naive", "paper", "adaptive"} {
		a, err := policy.New(name, policy.DefaultTuning())
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, a.Name())
		}
		if b := policy.MustNew(name, policy.DefaultTuning()); b == a {
			t.Errorf("New(%q) returned a shared instance", name)
		}
	}
	if _, err := policy.New("no-such-policy", policy.DefaultTuning()); err == nil {
		t.Error("New(unknown) did not error")
	} else if !strings.Contains(err.Error(), "naive") {
		t.Errorf("unknown-policy error does not list the known names: %v", err)
	}
}
