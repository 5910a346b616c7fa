package policy_test

import (
	"testing"

	"rocktm/internal/cps"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
)

// FuzzEngine drives the engine on a one-strand machine, the way the
// retrying systems do, with each built-in policy over a fuzzed Tuning and
// a fuzzed sequence of CPS values. Each value is one attempt's outcome
// (0 commits), read as two little-endian bytes and cycled until every
// block's bound has been passed. A block ends when OnFailure returns
// Fallback, or when a Wait leaves the budget exhausted. The properties:
//
//   - a Wait decision comes back as Wait, even past the budget;
//   - a failure with INST, FP or PREC and no UCTI falls back at once
//     under paper and adaptive;
//   - counting only non-Wait failures, a block falls back within
//     ⌈Budget ÷ min(UCTIWeight, TCCWeight, ½)⌉ failures (at least one);
//   - nothing panics.
//
// The budget is an integer in [0, 64] and both weights are multiples of
// 1/64 in [1/64, 4], so score sums are exact.
func FuzzEngine(f *testing.F) {
	f.Fuzz(func(t *testing.T, budget, uctiW, tccW, flags uint8, backoffOn uint16, seq []byte) {
		const defined = cps.Bits(1<<12 - 1)
		tun := policy.Tuning{
			Budget:      float64(budget % 65),
			UCTIWeight:  float64(int(uctiW)+1) / 64,
			UCTIBackoff: flags&1 != 0,
			BackoffOn:   cps.Bits(backoffOn) & defined,
			TCCAction:   policy.Wait,
			TCCWeight:   float64(int(tccW)+1) / 64,
		}
		if flags&2 != 0 {
			tun.TCCAction = policy.Backoff
		}
		seq = seq[:min(len(seq), 64)]
		outcomes := make([]cps.Bits, len(seq)/2)
		for i := range outcomes {
			outcomes[i] = (cps.Bits(seq[2*i]) | cps.Bits(seq[2*i+1])<<8) & defined
		}
		if len(outcomes) == 0 {
			return
		}
		// The bound, in sixty-fourths: the smallest charge a non-Wait
		// failure that does not fall back can carry is min(UCTIWeight,
		// TCCWeight, ½).
		minCharge := min(int(uctiW)+1, int(tccW)+1, 32)
		bound := max(1, (int(budget%65)*64+minCharge-1)/minCharge)

		m := sim.New(sim.DefaultConfig(1))
		defer m.Recycle()
		m.Run(func(s *sim.Strand) {
			for _, name := range []string{"naive", "paper", "adaptive"} {
				p := &spy{Policy: policy.MustNew(name, tun)}
				if msg := driveBlocks(s, p, outcomes, bound); msg != "" {
					t.Errorf("%s over %+v: %s", name, tun, msg)
				}
			}
		})
	})
}

// driveBlocks runs blocks under p over the cycled outcomes and returns the
// first property violation, or "".
func driveBlocks(s *sim.Strand, p *spy, outcomes []cps.Bits, bound int) string {
	const giveUp = cps.INST | cps.FP | cps.PREC
	eng := policy.Start(p, 0)
	nonWait := 0
	for i := 0; i < len(outcomes)*(bound+1); i++ {
		c := outcomes[i%len(outcomes)]
		if c == 0 {
			eng.OnCommit()
			eng, nonWait = policy.Start(p, 0), 0
			continue
		}
		act := eng.OnFailure(s, c)
		switch {
		case p.last.Action == policy.Wait && act != policy.Wait:
			return "a Wait decision for " + c.String() + " came back as " + act.String()
		case p.Name() != "naive" && c.Any(giveUp) && !c.Has(cps.UCTI) && act != policy.Fallback:
			return c.String() + " did not fall back at once: " + act.String()
		case act == policy.Wait:
			if eng.Exhausted() {
				eng.OnFallback()
				eng, nonWait = policy.Start(p, 0), 0
			}
			continue
		case act == policy.Fallback:
			eng.OnFallback()
			eng, nonWait = policy.Start(p, 0), 0
			continue
		}
		if nonWait++; nonWait >= bound {
			return "no fallback after " + c.String() + ", the bound'th non-Wait failure"
		}
	}
	return ""
}

// spy records the last decision of the policy it wraps.
type spy struct {
	policy.Policy
	last policy.Decision
}

// Decide implements policy.Policy.
func (p *spy) Decide(site uint32, attempt int, c cps.Bits) policy.Decision {
	p.last = p.Policy.Decide(site, attempt, c)
	return p.last
}
