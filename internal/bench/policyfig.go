package bench

import (
	"strings"

	"rocktm/internal/core"
	"rocktm/internal/phtm"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
)

// The policy-ablation workload: the Figure 2(b) red-black tree (2048 keys,
// 96% reads), the paper's most retry-sensitive structure — transactions
// are deep enough to abort for capacity and TLB reasons, and the 4%
// update mix generates genuine coherence conflicts for the backoff and
// throttle stances to act on.
const (
	policyKeyRange  = 2048
	policyPctLookup = 96
	policyMemWords  = 1 << 22
)

// policyAblationPolicies lists the built-in policies in ablation order
// (the naive baseline first, then the paper heuristics, then the
// adaptive learner).
func policyAblationPolicies() []string { return []string{"naive", "paper", "adaptive"} }

// policyPhTM builds PhTM over the SkySTM back end with the named retry
// policy driving the hardware attempts, its tuning adapted to the
// machine's HTM design point (the identity for the default design).
func policyPhTM(name string) func(m *sim.Machine) core.System {
	return func(m *sim.Machine) core.System {
		pcfg := phtm.DefaultConfig()
		pcfg.Policy = policy.MustNew(name, policy.TuningForDesign(policy.PhTM(), m.Config().HTM))
		return phtm.New(m, sky.New(m), pcfg)
	}
}

// PolicyFigure produces the policy × fault-profile ablation table: every
// built-in retry policy (naive, paper, adaptive) crossed with every named
// fault profile (none, interrupts, tlb, inval, evict, squeeze), each swept
// across the thread axis. One column per (policy, profile) pair.
//
// The interesting comparisons, and what Section 6.1 predicts:
//
//   - naive vs paper under "none": the paper heuristics' backoff defeats
//     requester-wins livelock that plain counted retries suffer at high
//     thread counts (Section 4).
//   - under "tlb" and "squeeze": capacity-flavoured aborts (ST, SIZ)
//     either stop recurring after warming retries (tlb: the failing
//     access re-establishes the mapping) or never stop (squeeze: the
//     queue really is too small); the adaptive policy should detect the
//     difference and cut the doomed retries the static policies burn.
//   - under "inval": injected COH dominance escalates the adaptive
//     policy's stance from Backoff to Throttle.
func PolicyFigure(o Options) (*Figure, error) {
	o = o.Defaults()
	kv := kvConfig{keyRange: policyKeyRange, pctLookup: policyPctLookup, memWords: policyMemWords, build: rbtreeKV}
	var curves []curve
	for _, pol := range policyAblationPolicies() {
		for _, prof := range sim.FaultProfileNames() {
			prof := prof
			c := o.kvCurve(pol+"/"+prof, kv, policyPhTM(pol), map[string]string{"policy": pol, "profile": prof})
			// The default design with the profile's fault plan, which rides
			// in the config so the cache digests tell profiles apart.
			c.cfg = func(threads int) sim.Config { return htmDesignCfg(threads, policyMemWords, o.Seed, "rock", prof) }
			curves = append(curves, c)
		}
	}
	fig, err := o.figure("policy", "Policy ablation: retry policy x fault profile (PhTM, RB-tree 2048 keys 96% reads)", curves)
	if err != nil {
		return nil, err
	}
	// One annotation per policy at the highest thread count of the
	// no-fault baseline, so the table stays readable.
	fig.noteLast(func(name string) bool { return strings.HasSuffix(name, "/none") })
	return fig, nil
}
