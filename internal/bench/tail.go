package bench

import (
	"fmt"

	"rocktm/internal/workload"
)

// tailSystems is the tail-latency experiment's system set: one
// representative of each synchronization family (phased HTM, lock elision,
// pure STM, plain locking), so the percentile tables contrast the families
// rather than the intra-family variants.
func tailSystems() []SysBuilder { return systems("phtm", "tle", "stm", "one-lock") }

// tailSkews is the key-distribution axis: the paper's uniform draw plus
// two zipfian skews (YCSB's default 0.99 and a milder 0.9). Skew
// concentrates conflicts on a few hot keys, which barely moves mean
// throughput but stretches the latency tail — the effect this experiment
// exists to expose.
func tailSkews() []struct {
	name string
	keys func(r int) workload.Keys
} {
	return []struct {
		name string
		keys func(r int) workload.Keys
	}{
		{"uniform", func(r int) workload.Keys { return workload.Uniform(r) }},
		{"zipf0.9", func(r int) workload.Keys { return workload.Zipfian(r, 0.9) }},
		{"zipf0.99", func(r int) workload.Keys { return workload.Zipfian(r, 0.99) }},
	}
}

// TailFigure is the `-exp tail` experiment: operation-latency percentiles
// (p50/p90/p99/p99.9 simulated cycles) and throughput for skew x system x
// threads over a hash table (4096 keys, 50% lookups, deliberately few
// buckets so hot keys collide) and a red-black tree (2048 keys, 90%
// lookups). Latency capture is forced on — that is the experiment.
func TailFigure(o Options) (*Figure, error) {
	o = o.Defaults()
	o.Latency = true
	structures := timelineStructures()
	systems := tailSystems()
	var curves []curve
	for _, st := range structures {
		for _, sb := range systems {
			for _, sk := range tailSkews() {
				cfg := st.cfg
				cfg.keys = sk.keys(cfg.keyRange)
				curves = append(curves, o.kvCurve(st.name+"/"+sb.Name+"/"+sk.name, cfg, sb.Build, nil))
			}
		}
	}
	fig, err := o.figure("tail", "Tail latency: skew x system, HashTable 4096 keys 50% lookups + RB-tree 2048 keys 90% lookups", curves)
	if err != nil {
		return nil, err
	}
	fig.YLabel = "throughput (ops/usec), simulated; latency tables in simulated cycles"
	// Annotate the skew effect at the highest thread count: p99.9 inflation
	// of the most skewed draw relative to uniform, per structure/system.
	top := o.Threads[len(o.Threads)-1]
	for _, st := range structures {
		for _, sb := range systems {
			uni, okU := fig.LatencyAt(st.name+"/"+sb.Name+"/uniform", top)
			hot, okH := fig.LatencyAt(st.name+"/"+sb.Name+"/zipf0.99", top)
			if okU && okH && uni.P999 > 0 {
				fig.Notes = append(fig.Notes, fmt.Sprintf("%s/%s @%dT: zipf0.99 p99.9 = %.2fx uniform (%d vs %d cycles)",
					st.name, sb.Name, top, float64(hot.P999)/float64(uni.P999), hot.P999, uni.P999))
			}
		}
	}
	return fig, nil
}
