package policy_test

import (
	"fmt"
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/cps"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
)

// FuzzEngine drives policy.Run on a one-strand machine, the way the
// retrying systems do, with each built-in policy over a fuzzed Tuning and
// a fuzzed sequence of CPS values. Each value is one attempt's outcome
// (0 commits), read as two little-endian bytes; blocks run one after
// another over the cycled sequence until every block's bound has been
// passed. The scripted wait returns false when flags bit 2 is set, the
// way PhTM's does when the system has moved to the software phase. The
// properties:
//
//   - every Wait decision calls wait, even past the budget;
//   - after a failure with INST, FP or PREC and no UCTI, paper and
//     adaptive make no further attempt, and neither does any policy
//     after a wait that returned false;
//   - counting only non-Wait failures, a block falls back within
//     ⌈Budget ÷ min(UCTIWeight, TCCWeight, ½)⌉ failures (at least one);
//   - a block makes no attempt exactly when the budget is zero;
//   - Run's counts in its Stats match the scripted outcomes it consumed;
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
				if msg := driveBlocks(s, p, outcomes, bound, flags&4 == 0); msg != "" {
					t.Errorf("%s over %+v: %s", name, tun, msg)
				}
			}
		})
	})
}

// driveBlocks runs blocks through policy.Run under p over the cycled
// outcomes, with a wait that returns waitOK, and returns the first
// property violation, or "".
func driveBlocks(s *sim.Strand, p *spy, outcomes []cps.Bits, bound int, waitOK bool) string {
	const giveUp = cps.INST | cps.FP | cps.PREC
	st := core.NewStats()
	want := core.NewStats()
	var (
		next     int    // index of the next scripted outcome
		msg      string // first violation
		stopped  string // why the block must make no further attempt
		nonWait  int    // non-Wait failures in the current block
		waits    int    // wait calls in the current block
		commit   bool   // the current block's last attempt committed
		attempts int    // attempts in the current block
	)
	fail := func(m string) {
		if msg == "" {
			msg = m
		}
	}
	try := func() (bool, cps.Bits) {
		if stopped != "" {
			fail("attempted again after " + stopped)
		}
		if p.decided {
			if p.last.Action != policy.Wait {
				nonWait++
			}
			if p.last.Action == policy.Wait && waits != p.waits {
				fail("a Wait decision for " + p.lastCPS.String() + " did not call wait")
			}
			if nonWait >= bound {
				fail("no fallback after " + p.lastCPS.String() + ", the bound'th non-Wait failure")
			}
		}
		attempts++
		c := outcomes[next%len(outcomes)]
		next++
		want.HWAttempts++
		if c == 0 {
			commit, stopped = true, "a commit"
			want.HWCommits++
			want.Ops++
			return true, 0
		}
		want.RecordFailure(c)
		if p.Name() != "naive" && c.Any(giveUp) && !c.Has(cps.UCTI) {
			stopped = c.String()
		}
		return false, c
	}
	wait := func() bool {
		waits++
		if !waitOK {
			stopped = "a wait that returned false"
		}
		return waitOK
	}
	for next < len(outcomes)*(bound+1) && msg == "" {
		stopped, nonWait, waits, commit, attempts = "", 0, 0, false, 0
		p.reset()
		want.HWBlocks++
		ok := policy.Run(s, p, st, try, wait)
		switch {
		case ok != commit:
			fail(fmt.Sprintf("Run returned %v, but the block's last attempt committed: %v", ok, commit))
		case p.waits != waits:
			fail(fmt.Sprintf("%d Wait decisions, %d wait calls", p.waits, waits))
		case p.done != 1:
			fail(fmt.Sprintf("Done called %d times for one block", p.done))
		case p.doneAttempts != attempts || p.doneFellBack == ok:
			fail(fmt.Sprintf("Done(%d, %v) after %d attempts, committed %v", p.doneAttempts, p.doneFellBack, attempts, ok))
		case (attempts == 0) != (p.Budget() == 0):
			fail(fmt.Sprintf("%d attempts under budget %g", attempts, p.Budget()))
		}
		if attempts == 0 {
			break // a zero budget consumes no outcome
		}
	}
	if msg == "" {
		if got, w := *st, *want; got.HWBlocks != w.HWBlocks || got.HWAttempts != w.HWAttempts ||
			got.HWCommits != w.HWCommits || got.Ops != w.Ops {
			fail(fmt.Sprintf("Run counted blocks/attempts/commits/ops %d/%d/%d/%d, script %d/%d/%d/%d",
				got.HWBlocks, got.HWAttempts, got.HWCommits, got.Ops, w.HWBlocks, w.HWAttempts, w.HWCommits, w.Ops))
		} else if st.CPSHist.String() != want.CPSHist.String() {
			fail("Run's CPS histogram " + st.CPSHist.String() + ", script " + want.CPSHist.String())
		}
	}
	return msg
}

// spy records the decisions and the outcome notification of the policy it
// wraps, per block.
type spy struct {
	policy.Policy
	decided      bool // Decide ran in this block
	last         policy.Decision
	lastCPS      cps.Bits
	waits        int // Wait decisions in this block
	done         int // Done calls in this block
	doneAttempts int
	doneFellBack bool
}

func (p *spy) reset() {
	p.decided, p.waits, p.done = false, 0, 0
}

// Decide implements policy.Policy.
func (p *spy) Decide(c cps.Bits) policy.Decision {
	p.last = p.Policy.Decide(c)
	p.decided, p.lastCPS = true, c
	if p.last.Action == policy.Wait {
		p.waits++
	}
	return p.last
}

// Done implements policy.Policy.
func (p *spy) Done(attempts int, fellBack bool) {
	p.done++
	p.doneAttempts, p.doneFellBack = attempts, fellBack
	p.Policy.Done(attempts, fellBack)
}
