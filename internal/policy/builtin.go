package policy

import "rocktm/internal/cps"

// Naive is the "very simplistic policy" of the paper's C++ STL vector
// experiment (Section 7.1): retry a fixed number of times, consult the
// CPS register for nothing. Every failure counts one full point and no
// failure triggers backoff — which is exactly why the paper's Section 4
// counter experiment livelocks without backoff, and why the smarter
// policies exist.
//
// The single CPS-shaped exception is the software-convention TCC abort,
// which is not a hardware failure at all: it is the system's own "not
// now" signal (lock held, software phase active), so even the naive
// policy defers to the system's Wait handling with the tuned charge.
type Naive struct {
	t Tuning
}

// Name implements Policy.
func (p *Naive) Name() string { return "naive" }

// Budget implements Policy.
func (p *Naive) Budget() float64 { return p.t.Budget }

// Decide implements Policy: one point per failure, no CPS consultation.
func (p *Naive) Decide(c cps.Bits) Decision {
	if c == cps.TCC {
		return Decision{Action: p.t.TCCAction, Score: p.t.TCCWeight}
	}
	return Decision{Action: Retry, Score: 1}
}

// Done implements Policy (no learning).
func (p *Naive) Done(int, bool) {}

// Paper is the Section 6.1 policy the paper's TLE, PhTM and HyTM
// converged on, generalized over Tuning:
//
//   - TCC (exactly): the system's own abort — Wait (or Backoff, for
//     HyTM's ownership-check aborts) with a reduced charge.
//   - UCTI set: the branch misspeculated past an unresolved load, so
//     every companion bit may be an artifact; retry, charging only
//     UCTIWeight (the R2 chip revision added the bit for precisely this
//     purpose, Section 3).
//   - INST, FP or PREC, the give-up bits: the block contains an
//     instruction the HTM will never execute — fall back immediately,
//     retries are pure waste.
//   - Anything else (COH, LD, ST, SIZ, CTI, ASYNC, EXOG): one full
//     point; back off first when a BackoffOn bit (COH) is present,
//     because requester-wins coherence livelocks symmetric retries
//     (Section 4).
//
// Capacity failures (ST|SIZ store-queue overflow, SIZ deferred-queue
// overflow, LD read-set eviction) deliberately charge a full point per
// attempt rather than falling back instantly: Section 6 observes that a
// failing attempt warms the caches, so a bounded number of retries
// commits transactions that a hair-trigger fallback would needlessly
// send to the lock or the STM. The adaptive policy sharpens this by
// watching whether capacity failures actually stop recurring.
type Paper struct {
	t Tuning
}

// Name implements Policy.
func (p *Paper) Name() string { return "paper" }

// Budget implements Policy.
func (p *Paper) Budget() float64 { return p.t.Budget }

// Decide implements Policy.
func (p *Paper) Decide(c cps.Bits) Decision {
	t := &p.t
	switch {
	case c == cps.TCC:
		return Decision{Action: t.TCCAction, Score: t.TCCWeight}
	case c.Has(cps.UCTI):
		d := Decision{Action: Retry, Score: t.UCTIWeight}
		if t.UCTIBackoff && c.Any(t.BackoffOn) {
			d.Action = Backoff
		}
		return d
	case c.Any(giveUp):
		return Decision{Action: Fallback}
	default:
		d := Decision{Action: Retry, Score: 1}
		if c.Any(t.BackoffOn) {
			d.Action = Backoff
		}
		return d
	}
}

// Done implements Policy (no learning).
func (p *Paper) Done(int, bool) {}
