package sim

// FaultPlan configures deterministic fault injection: seeded adversarial
// events that stress a TM system's retry policy by manufacturing the abort
// causes the paper catalogues in Table 1, without changing the workload.
//
// Faults are drawn from a dedicated per-strand RNG stream (seeded from the
// machine seed and the strand ID) that is only created when the plan
// enables at least one probabilistic fault — so a machine with a zero
// FaultPlan is bit-for-bit identical to one built before fault injection
// existed, and enabling one fault class never perturbs the draws of the
// run's main RNG stream.
//
// Every fault fires through the simulator's real abort machinery (doom
// bits, micro-DTLB misses, queue-capacity checks), so the CPS values a
// policy observes under injection are the same values the organic versions
// of those events produce.
type FaultPlan struct {
	// InterruptProb is the per-transactional-access probability of a
	// spurious asynchronous interrupt dooming the in-flight transaction
	// with CPS=ASYNC — the "interrupts, TLB misses, etc." background noise
	// of Section 3 made adversarial.
	InterruptProb float64
	// TLBShootdownProb is the per-transactional-store probability that the
	// store's page is evicted from the micro-DTLB just before translation
	// (an adversarial shootdown racing the store). The store then misses
	// and aborts with CPS=ST through the normal Section 3.1 path; because
	// the failing access re-warms the mapping, a retry succeeds — exactly
	// the transient the paper's dummy-CAS warmup exists to avoid.
	TLBShootdownProb float64
	// InvalidateProb is the per-transactional-access probability that an
	// adversary claims exclusive ownership of a line the transaction has
	// marked, dooming it with CPS=COH (requester-wins, with the requester
	// played by the fault injector). Fires only once the attempt has
	// marked at least one line.
	InvalidateProb float64
	// EvictMarkedProb is the per-transactional-access probability that a
	// randomly chosen marked line of the attempt is displaced from the
	// strand's own L1 (an adversarial capacity/conflict eviction). Under
	// the default zero-tolerance design the transaction dooms with CPS=LD;
	// under a sticky-set design (Config.HTM.StickyLines > 0) the spill is
	// absorbed until the overflow bound, after which it dooms with
	// CPS=LD|SIZ — the knob exists precisely to exercise that axis.
	EvictMarkedProb float64

	// SqueezeStoreQueue, when nonzero, overrides the per-bank store-queue
	// capacity downward (or upward) regardless of mode — a capacity
	// squeeze that manufactures ST|SIZ overflows the way SE mode does in
	// Section 8.1, but tunable.
	SqueezeStoreQueue int
	// SqueezeDeferredQueue, when nonzero, overrides the deferred-queue
	// capacity, manufacturing SIZ aborts from load misses.
	SqueezeDeferredQueue int
}

// probabilistic reports whether any per-access fault dice need rolling
// (capacity squeezes are static overrides and need no RNG).
func (f FaultPlan) probabilistic() bool {
	return f.InterruptProb > 0 || f.TLBShootdownProb > 0 || f.InvalidateProb > 0 ||
		f.EvictMarkedProb > 0
}

// Enabled reports whether the plan injects anything at all.
func (f FaultPlan) Enabled() bool {
	return f.probabilistic() || f.SqueezeStoreQueue > 0 || f.SqueezeDeferredQueue > 0
}

// faultInjector is the per-strand fault state: the plan plus a private RNG
// stream. It exists only when the plan has a probabilistic component, so
// the hot-path hooks reduce to one nil check when faults are off.
type faultInjector struct {
	plan FaultPlan
	rng  rng
}

// newFaultInjector builds a strand's injector, or returns nil when the
// plan rolls no dice. The RNG stream is decorrelated from the strand's
// main stream by distinct odd multipliers.
func newFaultInjector(cfg *Config, id int) *faultInjector {
	f := cfg.Faults
	if !f.probabilistic() {
		return nil
	}
	return &faultInjector{
		plan: f,
		rng:  newRNG(cfg.Seed*0xbf58476d1ce4e5b9 + uint64(id)*0x2545f4914f6cdd1d + 1),
	}
}

// onTxAccess rolls the per-access fault dice for the strand's in-flight
// transaction: a spurious interrupt dooms it with ASYNC; an adversarial
// invalidation of a marked line dooms it with COH. Dooming (rather than
// aborting inline) delivers the failure at the access's own checkDoom,
// the same delivery path organic asynchronous events use.
func (f *faultInjector) onTxAccess(s *Strand) {
	p := &f.plan
	if p.InterruptProb > 0 && f.rng.Chance(p.InterruptProb) {
		s.doom(asyncBit)
	}
	if p.InvalidateProb > 0 && len(s.tx.marked) > 0 && f.rng.Chance(p.InvalidateProb) {
		s.doom(cohBit)
	}
	if p.EvictMarkedProb > 0 && len(s.tx.marked) > 0 && f.rng.Chance(p.EvictMarkedProb) {
		f.evictMarked(s)
	}
}

// evictMarked displaces one randomly chosen marked line of the in-flight
// attempt from the strand's own L1, exercising the set-eviction-tolerance
// axis: the displacement flows through the same spillMarked decision the
// organic fillMiss path uses, so a sticky design absorbs it (until the
// bound) and the default design dooms with the same reason an organic
// capacity eviction produces. Doomed (not aborted inline), so delivery
// happens at the access's own checkDoom like every asynchronous event.
func (f *faultInjector) evictMarked(s *Strand) {
	line := s.tx.marked[f.rng.Intn(len(s.tx.marked))]
	if !s.l1.invalidate(line) {
		// Already absent from the L1 (e.g. an earlier spill made it
		// sticky); nothing to displace.
		return
	}
	lm := s.dir(line)
	lm.present &^= s.bit
	if !s.spillMarked(lm) {
		s.doom(s.evictAbortReason())
	}
}

// onTxStorePage models a TLB shootdown racing a transactional store: the
// page's micro-DTLB entry is evicted just before translation, so the
// store misses and aborts with CPS=ST through the normal path (which also
// re-warms the mapping from the main DTLB, so retries succeed).
func (f *faultInjector) onTxStorePage(s *Strand, page int32) {
	if f.plan.TLBShootdownProb > 0 && f.rng.Chance(f.plan.TLBShootdownProb) {
		s.mmu.micro.evict(page)
	}
}

// faultProfiles is the policy-ablation experiments' table, in experiment
// order: "none" (the no-fault baseline) first, then "interrupts" (spurious
// ASYNC), "tlb" (micro-DTLB shootdowns on stores), "inval" (adversarial
// COH invalidations), "evict" (adversarial displacement of marked lines
// from the attempt's own L1 — LD dooms under the default design, absorbed
// up to the sticky bound under Config.HTM.StickyLines) and "squeeze"
// (store/deferred queue capacity squeeze).
var faultProfiles = []named[FaultPlan]{
	{"none", FaultPlan{}},
	{"interrupts", FaultPlan{InterruptProb: 0.02}},
	{"tlb", FaultPlan{TLBShootdownProb: 0.35}},
	{"inval", FaultPlan{InvalidateProb: 0.02}},
	{"evict", FaultPlan{EvictMarkedProb: 0.02}},
	{"squeeze", FaultPlan{SqueezeStoreQueue: 4, SqueezeDeferredQueue: 8}},
}

// FaultProfileNames lists the named fault profiles in experiment order;
// the first is always the no-fault baseline.
func FaultProfileNames() []string { return names(faultProfiles) }

// FaultProfile returns the named fault plan of the policy-ablation
// experiments (see FaultProfileNames). It panics on unknown names;
// profiles are always requested from code.
func FaultProfile(name string) FaultPlan {
	return lookup(faultProfiles, "fault profile", name)
}
