package bench

import (
	"fmt"

	"rocktm/internal/core"
	"rocktm/internal/jvm"
	"rocktm/internal/phtm"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/tle"
)

// AblationRetryBudget is the Section 6 knob study: how the PhTM
// hardware-retry budget changes red-black-tree behaviour. The paper found
// that raising the budget lets retries warm the cache and commit
// transactions that a small budget sends to software — but that those
// extra retries also eat the latency advantage.
func AblationRetryBudget(o Options) (*Figure, error) {
	o = o.Defaults()
	cfg := kvConfig{
		keyRange:  2048,
		pctLookup: 96,
		memWords:  1 << 22,
		build:     rbtreeKV,
	}
	var curves []curve
	for _, budget := range []float64{1, 2, 4, 8, 16} {
		budget := budget
		curves = append(curves, o.kvCurve(fmt.Sprintf("budget=%g", budget), cfg, func(m *sim.Machine) core.System {
			t := policy.PhTM()
			t.Budget = budget
			c := phtm.DefaultConfig()
			c.Policy = policy.MustNew("paper", t)
			return phtm.New(m, sky.New(m), c)
		}, map[string]string{"budget": fmt.Sprintf("%g", budget)}))
	}
	fig, err := o.figure("ablate-retry", "Ablation: PhTM hardware-retry budget on Red-Black Tree 2048 keys, 96/2/2", curves)
	if err != nil {
		return nil, err
	}
	fig.noteLast(nil)
	return fig, nil
}

// AblationUCTIWeight studies the Section 8.1 policy choice of counting a
// UCTI-flagged failure as only *half* a failure on the MSF benchmark's
// synchronization profile (here: the Java Hashtable under TLE, where UCTI
// is the dominant failure at high thread counts).
func AblationUCTIWeight(o Options) (*Figure, error) {
	o = o.Defaults()
	const keyRange = 4096
	var curves []curve
	for _, w := range []float64{0.5, 1.0, 2.0} {
		w := w
		params := map[string]string{"weight": fmt.Sprintf("%g", w), "keyrange": itoa(keyRange)}
		curves = append(curves, o.hashtableCurve(fmt.Sprintf("ucti=%g", w), params, javaMix{2, 6, 2}, keyRange, func(m *sim.Machine) *jvm.JVM {
			t := policy.TLE()
			t.UCTIWeight = w
			return jvm.New(m, policy.MustNew("paper", t))
		}))
	}
	return o.figure("ablate-ucti", "Ablation: UCTI failure weight in the TLE policy (Java Hashtable, mix 2:6:2)", curves)
}

// AblationThrottle evaluates the Section 7.2 future-work idea implemented
// in tle.Throttle: adaptive concurrency throttling under a write-heavy
// mix, against plain TLE and plain locking.
func AblationThrottle(o Options) (*Figure, error) {
	o = o.Defaults()
	const keyRange = 8 // a handful of hot keys: elision-hostile
	mix := javaMix{5, 0, 5}
	var curves []curve
	for _, throttled := range []bool{false, true} {
		throttled := throttled
		name := "tle"
		if throttled {
			name = "tle+throttle"
		}
		params := map[string]string{"mix": mix.String(), "keyrange": itoa(keyRange)}
		curves = append(curves, o.hashtableCurve(name, params, mix, keyRange, func(m *sim.Machine) *jvm.JVM {
			vm := jvm.New(m, tle.DefaultPolicy())
			if throttled {
				vm.SetThrottle(tle.NewThrottle(m))
			}
			return vm
		}))
	}
	return o.figure("ablate-throttle", "Extension: adaptive concurrency throttling (TLE, Hashtable 5:0:5, keyrange 8)", curves)
}
