package bench

import (
	"strings"

	"rocktm/internal/sim"
)

// The htmdesign sweep replays three contrasting workloads against every
// named HTM design point (sim.DesignPointNames):
//
//   - rbtree: the Figure 2(b) red-black tree (2048 keys, 96% reads) —
//     deep transactions whose capacity and conflict behaviour exposed the
//     E23 tail pathology; the design axes move both its abort mix and who
//     pays for each conflict.
//   - hash: the Figure 1(a) hash table at key range 256 with 0% lookups —
//     short write-only transactions under genuine line contention, the
//     livelock-shaped workload conflict resolution exists for.
//   - rbtree-evict: the same tree under the "evict" fault profile
//     (adversarial displacement of marked lines), the injectable version
//     of the capacity pathology the sticky axis was built to absorb.
//
// Each (design, workload) pair runs under the paper policy and the
// adaptive policy, with tunings routed through policy.TuningForDesign so
// retry intelligence reacts to the design (e.g. committer-wins turning
// COH aborts into already-stalled self-aborts that need no software
// backoff). The design point rides in sim.Config.HTM, so every cell's
// cache key (Config.Digest) distinguishes designs automatically.
type htmWorkload struct {
	name string
	kv   kvConfig
	// faults names a sim.FaultProfile injected into every cell of this
	// workload ("" means none). The plan rides in sim.Config.Faults, so
	// the cache key (Config.Digest) distinguishes faulted cells the same
	// way it distinguishes designs.
	faults string
}

func htmDesignWorkloads() []htmWorkload {
	rbtree := kvConfig{keyRange: policyKeyRange, pctLookup: policyPctLookup, memWords: policyMemWords, build: rbtreeKV}
	return []htmWorkload{
		{name: "rbtree", kv: rbtree},
		{name: "hash", kv: kvConfig{keyRange: 256, pctLookup: 0, memWords: 1 << 23, build: hashtableKV(1 << 17)}},
		// The rbtree under the adversarial marked-line-eviction profile:
		// the workload the sticky axis exists for — the default design
		// dooms every displacement with LD, a sticky design absorbs them
		// up to its bound (the capacity half of the E23 tail pathology,
		// now injectable on demand).
		{name: "rbtree-evict", kv: rbtree, faults: "evict"},
	}
}

// htmDesignPolicies lists the retry policies the sweep crosses each
// design with: the paper's Section 6.1 heuristics and the adaptive
// learner (the naive baseline adds little here — the policy ablation
// already covers it).
func htmDesignPolicies() []string { return []string{"paper", "adaptive"} }

// htmDesignCfg is machineCfg with the named HTM design point and fault
// profile ("" means none) installed; both are part of the config, so the
// runner cache digests key them.
func htmDesignCfg(threads, memWords int, seed uint64, design, faults string) sim.Config {
	cfg := machineCfg(threads, memWords, seed)
	cfg.HTM = sim.DesignPoint(design)
	if faults != "" {
		cfg.Faults = sim.FaultProfile(faults)
	}
	return cfg
}

// HTMDesignFigure produces the design-space sweep: every named HTM design
// point × {rbtree, hash} × {paper, adaptive}, each across the thread
// axis. One curve per (design, workload, policy) triple, named
// "design/workload/policy"; the "rock/..." curves are the all-default
// baseline every other design is read against.
//
// What the axes predict (see docs/HTM-DESIGN.md for the worked reading):
//
//   - committer/timestamp vs rock on hash: conflict resolution that
//     stalls requesters serializes the write-only contention instead of
//     livelocking it, trading throughput at low threads for stability at
//     high ones.
//   - eagervm: cheaper commits (no drain) on the store-heavy hash cells,
//     bought with pricier aborts everywhere the rbtree conflicts.
//   - sticky: absorbs the rbtree's same-set read-set displacements (the
//     LD aborts behind deep-tree walks), directly attacking the capacity
//     half of the E23 tail pathology.
func HTMDesignFigure(o Options) (*Figure, error) {
	o = o.Defaults()
	var curves []curve
	for _, design := range sim.DesignPointNames() {
		for _, wl := range htmDesignWorkloads() {
			for _, pol := range htmDesignPolicies() {
				design, wl := design, wl
				c := o.kvCurve(design+"/"+wl.name+"/"+pol, wl.kv, policyPhTM(pol),
					map[string]string{"design": design, "workload": wl.name, "policy": pol, "faults": wl.faults})
				c.cfg = func(threads int) sim.Config { return htmDesignCfg(threads, wl.kv.memWords, o.Seed, design, wl.faults) }
				curves = append(curves, c)
			}
		}
	}
	fig, err := o.figure("htmdesign", "HTM design space: design point x workload x policy (PhTM over SkySTM)", curves)
	if err != nil {
		return nil, err
	}
	// One note per design point: its rbtree/paper cell at the highest
	// thread count, read against the rock baseline.
	fig.noteLast(func(name string) bool { return strings.HasSuffix(name, "/rbtree/paper") })
	return fig, nil
}
