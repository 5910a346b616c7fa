package policy_test

import (
	"strconv"
	"strings"
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/cps"
	"rocktm/internal/hytm"
	"rocktm/internal/locktm"
	"rocktm/internal/phtm"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
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
	// Fallback's score is irrelevant (Run stops), so it is "F".
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
			if got := verdict(col.build().Decide(tc.c)); got != tc.want[i] {
				t.Errorf("%s(%v) = %s, want %s", col.name, tc.c, got, tc.want[i])
			}
		}
	}
}

// script returns a hardware attempt that replays outcomes, one per call
// (0 commits), repeating the last one once they run out, and the count of
// calls made.
func script(outcomes ...cps.Bits) (func() (bool, cps.Bits), *int) {
	n := new(int)
	return func() (bool, cps.Bits) {
		c := outcomes[min(*n, len(outcomes)-1)]
		*n++
		return c == 0, c
	}, n
}

// TestEngineBudgetExhaustion checks the shared exhaustion rule: full-point
// failures exhaust an integer budget exactly at the budget'th failure.
func TestEngineBudgetExhaustion(t *testing.T) {
	tun := policy.TLE()
	tun.Budget = 3
	st := core.NewStats()
	try, n := script(cps.ASYNC)
	if policy.Run(nil, policy.MustNew("paper", tun), st, try, nil) {
		t.Fatal("a block of failures committed")
	}
	if *n != 3 || st.HWAttempts != 3 {
		t.Fatalf("attempts = %d (counted %d), want 3", *n, st.HWAttempts)
	}
}

// TestEngineUCTIHalfWeight checks the Section 8.1 "8 and one half"
// accounting: UCTI failures charge half, so a budget of 8 tolerates 16.
func TestEngineUCTIHalfWeight(t *testing.T) {
	p := policy.MustNew("paper", policy.TLE()) // budget 8, UCTI 0.5
	try, n := script(cps.UCTI)
	policy.Run(nil, p, core.NewStats(), try, nil)
	if *n != 16 {
		t.Fatalf("UCTI attempts = %d, want 16", *n)
	}
}

// TestEngineWaitNeverConvertsToFallback pins the Wait contract: even with
// the budget exhausted by the Wait's own charge, Run calls the
// system-specific wait before the budget re-check ends the block.
func TestEngineWaitNeverConvertsToFallback(t *testing.T) {
	tun := policy.TLE()
	tun.Budget = 1
	tun.TCCWeight = 1
	try, n := script(cps.TCC)
	waits := 0
	wait := func() bool { waits++; return true }
	if policy.Run(nil, policy.MustNew("paper", tun), core.NewStats(), try, wait) {
		t.Fatal("a TCC abort committed")
	}
	if *n != 1 || waits != 1 {
		t.Fatalf("attempts = %d, waits = %d, want 1 and 1", *n, waits)
	}
}

// TestEngineBackoffChargesCycles checks that Backoff and Throttle verdicts
// advance the strand's virtual clock (the randomized exponential delay),
// while Retry verdicts do not.
func TestEngineBackoffChargesCycles(t *testing.T) {
	m := sim.New(sim.DefaultConfig(1))
	m.Run(func(s *sim.Strand) {
		p := policy.MustNew("paper", policy.TLE())
		// delay returns the cycles Run spent between a failure with c and
		// the retry that commits.
		delay := func(c cps.Bits) int64 {
			var clocks []int64
			try, _ := script(c, 0)
			policy.Run(s, p, core.NewStats(), func() (bool, cps.Bits) {
				clocks = append(clocks, s.Clock())
				return try()
			}, nil)
			return clocks[1] - clocks[0]
		}
		if d := delay(cps.ASYNC); d != 0 { // Retry: no delay
			t.Errorf("retry charged %d cycles, want 0", d)
		}
		if delay(cps.COH) == 0 { // Backoff: must charge
			t.Error("backoff charged no cycles")
		}
	})
}

// TestRunNotifiesDone checks that Run tells the policy how each block
// ended exactly once: a commit after k failures as Done(k+1, false), and
// a fallback after k failures as Done(k, true).
func TestRunNotifiesDone(t *testing.T) {
	tun := policy.TLE()
	tun.Budget = 3
	cases := []struct {
		name     string
		outcomes []cps.Bits
		attempts int
		fellBack bool
	}{
		{"commit at once", []cps.Bits{0}, 1, false},
		{"commit after 2 failures", []cps.Bits{cps.ASYNC, cps.COH, 0}, 3, false},
		{"budget spent by 3 failures", []cps.Bits{cps.ASYNC}, 3, true},
		{"INST on the 2nd failure", []cps.Bits{cps.ASYNC, cps.INST}, 2, true},
		{"a wait that gives up", []cps.Bits{cps.TCC}, 1, true},
	}
	m := sim.New(sim.DefaultConfig(1))
	m.Run(func(s *sim.Strand) {
		for _, tc := range cases {
			p := &spy{Policy: policy.MustNew("paper", tun)}
			try, _ := script(tc.outcomes...)
			ok := policy.Run(s, p, core.NewStats(), try, func() bool { return false })
			if ok == tc.fellBack || p.done != 1 || p.doneAttempts != tc.attempts || p.doneFellBack != tc.fellBack {
				t.Errorf("%s: Run = %v, %d Done calls, last Done(%d, %v); want one Done(%d, %v)",
					tc.name, ok, p.done, p.doneAttempts, p.doneFellBack, tc.attempts, tc.fellBack)
			}
		}
	})
}

// TestZeroBudgetTakesFallbackPath checks each hardware-first system under
// a zero budget: no block makes a hardware attempt, and every block
// finishes on the system's fallback path.
func TestZeroBudgetTakesFallbackPath(t *testing.T) {
	const blocks = 10
	zero := func(t policy.Tuning) policy.Policy {
		t.Budget = 0
		return policy.MustNew("paper", t)
	}
	systems := []struct {
		name     string
		build    func(m *sim.Machine) core.System
		fallback func(st *core.Stats) uint64
	}{
		{"tle", func(m *sim.Machine) core.System {
			return tle.New("tle", tle.SpinAdapter{L: locktm.NewSpinLock(m.Mem())}, zero(policy.TLE()))
		}, func(st *core.Stats) uint64 { return st.LockAcquires }},
		{"phtm", func(m *sim.Machine) core.System {
			cfg := phtm.DefaultConfig()
			cfg.Policy = zero(policy.PhTM())
			return phtm.New(m, sky.New(m), cfg)
		}, func(st *core.Stats) uint64 { return st.SWCommits }},
		{"hytm", func(m *sim.Machine) core.System {
			return hytm.New(sky.New(m), hytm.Config{Policy: zero(policy.HyTM())})
		}, func(st *core.Stats) uint64 { return st.SWCommits }},
	}
	for _, sys := range systems {
		cfg := sim.DefaultConfig(1)
		cfg.MemWords = 1 << 21
		m := sim.New(cfg)
		tm := sys.build(m)
		a := m.Mem().AllocLines(1)
		m.Run(func(s *sim.Strand) {
			for i := 0; i < blocks; i++ {
				tm.Atomic(s, func(c core.Ctx) { c.Store(a, c.Load(a)+1) })
			}
		})
		st := tm.Stats()
		if st.HWAttempts != 0 || sys.fallback(st) != blocks || m.Mem().Peek(a) != blocks {
			t.Errorf("%s: %d hardware attempts, %d fallbacks, counter %d; want 0, %d, %d",
				sys.name, st.HWAttempts, sys.fallback(st), m.Mem().Peek(a), blocks, blocks)
		}
		m.Recycle()
	}
}

// TestAdaptiveCapacityHopeless drives a full window of capacity failures
// with no hardware commit: the adaptive policy must flip from the paper's
// retry-and-warm bet to immediate fallback.
func TestAdaptiveCapacityHopeless(t *testing.T) {
	p := policy.NewAdaptive(policy.TLE())
	var sawFallback int
	for i := 0; i < 40; i++ {
		d := p.Decide(cps.SIZ)
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
	p.Done(3, false)
	if d := p.Decide(cps.SIZ); d.Action != policy.Retry {
		t.Fatalf("after commit: action = %v, want retry", d.Action)
	}
}

// TestAdaptiveCOHEscalatesToThrottle drives a COH-dominated window:
// Backoff must escalate to Throttle.
func TestAdaptiveCOHEscalatesToThrottle(t *testing.T) {
	p := policy.NewAdaptive(policy.TLE())
	var sawThrottle bool
	for i := 0; i < 40; i++ {
		d := p.Decide(cps.COH)
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

// TestAdaptiveCOHFollowsBackoffOn: under committer-wins and timestamp
// resolution, TuningForDesign drops COH from BackoffOn, and the adaptive
// policy then retries a COH failure at once for one point, as the paper
// policy does — also after a COH-dominated window, which would otherwise
// escalate to Throttle. It used to back off on COH whatever BackoffOn
// said.
func TestAdaptiveCOHFollowsBackoffOn(t *testing.T) {
	for _, design := range []string{"committer", "timestamp"} {
		tun := policy.TuningForDesign(policy.PhTM(), sim.DesignPoint(design))
		p, paper := policy.NewAdaptive(tun), policy.MustNew("paper", tun)
		for i := 0; i < 100; i++ {
			want := policy.Decision{Action: policy.Retry, Score: 1}
			if d := paper.Decide(cps.COH); d != want {
				t.Fatalf("%s: paper COH = %+v, want %+v", design, d, want)
			}
			if d := p.Decide(cps.COH); d != want {
				t.Fatalf("%s: adaptive COH failure %d = %+v, want %+v", design, i, d, want)
			}
		}
	}
}

// TestAdaptiveTCCNotRecorded checks that the system's own explicit aborts
// are not treated as evidence about the hardware's viability.
func TestAdaptiveTCCNotRecorded(t *testing.T) {
	p := policy.NewAdaptive(policy.TLE())
	for i := 0; i < 100; i++ {
		if d := p.Decide(cps.TCC); d.Action != policy.Wait {
			t.Fatalf("TCC: action = %v, want wait", d.Action)
		}
	}
	if h := p.Histogram(); h.Total() != 0 {
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
