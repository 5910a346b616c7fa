package policy_test

import (
	"strconv"
	"strings"
	"testing"

	"rocktm/internal/cps"
	"rocktm/internal/hytm"
	"rocktm/internal/phtm"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
	"rocktm/internal/tle"
)

// TestBuiltinDecisionsPerCPSBit pins, for every policy a system builds,
// its budget and its verdict for each of the twelve Table-1 failure
// reasons (plus the combinations the paper calls out), so a policy
// regression shows up as a named bit, not a throughput drift. Fresh policy
// instances are used per case: the adaptive policy's stance depends on
// history, and these are its *cold-start* verdicts (it starts from the
// paper policy's reactions).
func TestBuiltinDecisionsPerCPSBit(t *testing.T) {
	phtmOn := func(design string) func() policy.Policy {
		return func() policy.Policy {
			return policy.MustNew("paper", policy.TuningForDesign(policy.PhTM(), sim.DesignPoint(design)))
		}
	}
	builtin := func(name string) func() policy.Policy {
		return func() policy.Policy { return policy.MustNew(name, policy.TLE()) }
	}
	columns := []struct {
		name   string
		build  func() policy.Policy
		budget float64
	}{
		{"naive", builtin("naive"), 8},
		{"paper", builtin("paper"), 8},
		{"adaptive", builtin("adaptive"), 8},
		{"tle.DefaultPolicy", tle.DefaultPolicy, 8},
		{"tle.SimplePolicy(3)", func() policy.Policy { return tle.SimplePolicy(3) }, 3},
		{"phtm", func() policy.Policy { return phtm.DefaultConfig().Policy }, 8},
		{"hytm", func() policy.Policy { return hytm.DefaultConfig().Policy }, 6},
		{"phtm@committer", phtmOn("committer"), 8},
		{"phtm@eagervm", phtmOn("eagervm"), 6},
	}
	// Each verdict is the action's initial and the score charge; a
	// Fallback's score is irrelevant (the engine stops), so it is "F".
	cases := []struct {
		c    cps.Bits
		want [9]string
	}{
		//          naive  paper   adapt   tle     simple3 phtm    hytm    commit  eagervm
		{cps.EXOG, [9]string{"R1", "R1", "R0.5", "R1", "R1", "R1", "R1", "R1", "R1"}},
		{cps.COH, [9]string{"R1", "B1", "B1", "B1", "R1", "B1", "B1", "R1", "B1"}},
		{cps.TCC, [9]string{"W0.5", "W0.5", "W0.5", "W0.5", "W0.5", "W0", "B0.5", "W0", "W0"}},
		{cps.INST, [9]string{"R1", "F", "F", "F", "R1", "F", "F", "F", "F"}},
		{cps.PREC, [9]string{"R1", "F", "F", "F", "R1", "F", "F", "F", "F"}},
		{cps.ASYNC, [9]string{"R1", "R1", "R0.5", "R1", "R1", "R1", "R1", "R1", "R1"}},
		{cps.SIZ, [9]string{"R1", "R1", "R1", "R1", "R1", "R1", "R1", "R1", "R1"}},
		{cps.LD, [9]string{"R1", "R1", "R1", "R1", "R1", "R1", "R1", "R1", "R1"}},
		{cps.ST, [9]string{"R1", "R1", "R1", "R1", "R1", "R1", "R1", "R1", "R1"}},
		{cps.CTI, [9]string{"R1", "R1", "R0.5", "R1", "R1", "R1", "R1", "R1", "R1"}},
		{cps.FP, [9]string{"R1", "F", "F", "F", "R1", "F", "F", "F", "F"}},
		{cps.UCTI, [9]string{"R1", "R0.5", "R0.5", "R0.5", "R1", "R0.5", "R0.5", "R0.5", "R0.5"}},
		// UCTI with a COH companion: only TLE's tuning (UCTIBackoff) backs
		// off under paper; adaptive always retries UCTI immediately.
		{cps.UCTI | cps.COH, [9]string{"R1", "B0.5", "R0.5", "B0.5", "R1", "R0.5", "R0.5", "R0.5", "R0.5"}},
		// ST|SIZ store-queue overflow and LD|PREC unmapped-page loads: the
		// give-up bits win for LD|PREC, capacity retries for ST|SIZ.
		{cps.ST | cps.SIZ, [9]string{"R1", "R1", "R1", "R1", "R1", "R1", "R1", "R1", "R1"}},
		{cps.LD | cps.PREC, [9]string{"R1", "F", "F", "F", "R1", "F", "F", "F", "F"}},
	}
	verdict := func(d policy.Decision) string {
		code := strings.ToUpper(d.Action.String()[:1])
		if d.Action == policy.Fallback {
			return code
		}
		return code + strconv.FormatFloat(d.Score, 'g', -1, 64)
	}
	for i, col := range columns {
		if got := col.build().Budget(); got != col.budget {
			t.Errorf("%s: budget = %g, want %g", col.name, got, col.budget)
		}
		for _, tc := range cases {
			if got := verdict(col.build().Decide(0, 0, tc.c)); got != tc.want[i] {
				t.Errorf("%s(%v) = %s, want %s", col.name, tc.c, got, tc.want[i])
			}
		}
	}
}

// TestEngineBudgetExhaustion checks the shared exhaustion rule: full-point
// failures exhaust an integer budget exactly at the budget'th failure.
func TestEngineBudgetExhaustion(t *testing.T) {
	tun := policy.TLE()
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
	p := policy.MustNew("paper", policy.TLE()) // budget 8, UCTI 0.5
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
// the budget exhausted, OnFailure hands Wait back to the caller, whose
// system-specific wait must happen before the budget re-check.
func TestEngineWaitNeverConvertsToFallback(t *testing.T) {
	tun := policy.TLE()
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
		p := policy.MustNew("paper", policy.TLE())
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
	p := policy.NewAdaptive(policy.TLE())
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
	p := policy.NewAdaptive(policy.TLE())
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
	p := policy.NewAdaptive(policy.TLE())
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
		a, err := policy.New(name, policy.TLE())
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, a.Name())
		}
		if b := policy.MustNew(name, policy.TLE()); b == a {
			t.Errorf("New(%q) returned a shared instance", name)
		}
	}
	if _, err := policy.New("no-such-policy", policy.TLE()); err == nil {
		t.Error("New(unknown) did not error")
	} else if !strings.Contains(err.Error(), "naive") {
		t.Errorf("unknown-policy error does not list the known names: %v", err)
	}
}
