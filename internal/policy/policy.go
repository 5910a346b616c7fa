// Package policy is the pluggable, allocation-free retry-policy engine
// that decides the fate of failed best-effort hardware transactions.
//
// The paper's central software lesson (Sections 3 and 6.1) is that the
// CPS register tells you *why* a transaction failed, and that retry
// intelligence — retry now, back off first, throttle, or give up and take
// the fallback path (a lock or a software transaction) — must live in
// software and be tuned per abort cause. This package holds all of that
// intelligence for internal/tle, internal/phtm and internal/hytm, and
// states each system's rules once: TLE, PhTM and HyTM return the Tuning
// each system's policy is built from.
//
// The moving parts:
//
//   - Action: what to do after one failed attempt (Retry, Backoff,
//     Throttle, Wait, Fallback).
//   - Policy: maps one failed attempt's CPS value to a Decision. Three
//     built-ins ship: "naive" (count failures, consult nothing), "paper"
//     (the Section 6.1 heuristics the paper's systems converged on) and
//     "adaptive" (learns per-site abort histograms and shifts its stance).
//   - Engine: the per-block driver. It is a plain stack value — starting a
//     block, consuming failures and backing off allocate nothing — and it
//     owns the failure-score budget, so every TM system shares one
//     exhaustion rule instead of three slightly different loops.
//
// A TM system takes a built Policy (Engine values are per atomic block)
// and runs every hardware attempt through Engine.OnFailure. The
// Wait action is the one escape hatch for system-specific semantics: an
// explicit TCC abort means "lock held" under TLE but "software phase
// active" under PhTM, so the engine hands Wait back to the caller, the
// caller performs its own wait, and then consults Engine.Exhausted.
//
// See docs/POLICY.md for how to write and attach a custom policy and
// docs/ABORT-PLAYBOOK.md for what each CPS bit means and how each
// built-in policy reacts to it.
package policy

import (
	"fmt"

	"rocktm/internal/core"
	"rocktm/internal/cps"
	"rocktm/internal/sim"
)

// Action is the verdict for one failed hardware attempt.
type Action uint8

const (
	// Retry immediately: the failure is expected to be transient (e.g. a
	// misspeculation artifact flagged by UCTI) or the failed attempt
	// itself warmed the cache/TLB so the retry is better positioned.
	Retry Action = iota
	// Backoff before retrying: a randomized exponential delay, the
	// paper's Section 4 remedy for requester-wins livelock under
	// coherence conflicts.
	Backoff
	// Throttle before retrying: a deeper backoff window used when the
	// recent abort history says the line is contended by many strands —
	// the admission-control stance of Section 7.2's future work.
	Throttle
	// Wait for a system-specific condition, then retry. Returned for the
	// software-convention TCC abort, whose meaning only the calling
	// system knows (TLE: the lock is held; PhTM: software transactions
	// are draining; HyTM handles TCC with Backoff instead). The engine
	// performs no delay itself; the caller waits and then consults
	// Engine.Exhausted before retrying.
	Wait
	// Fallback: abandon hardware for this block and take the system's
	// fallback path (acquire the lock, run the STM, flip the phase).
	Fallback
)

// String names the action for reports and tests.
func (a Action) String() string {
	switch a {
	case Retry:
		return "retry"
	case Backoff:
		return "backoff"
	case Throttle:
		return "throttle"
	case Wait:
		return "wait"
	case Fallback:
		return "fallback"
	}
	return "?"
}

// Decision is a policy's verdict for one failed attempt: the action to
// take and how much the failure counts against the block's budget.
type Decision struct {
	Action Action
	// Score is added to the block's failure score; the engine falls back
	// once the score reaches the policy's Budget. Fractional scores
	// implement the paper's "a UCTI failure counts half" refinement.
	Score float64
}

// Policy maps failed hardware attempts to decisions. Implementations must
// be deterministic (no host randomness, no wall clocks): simulated-time
// reproducibility of every experiment depends on it. A Policy instance
// may be shared by every block of one system, so per-block state belongs
// in the Engine, not the Policy.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Budget is the failure score at which the engine abandons hardware.
	Budget() float64
	// Decide inspects the CPS value of the block's attempt'th failed
	// attempt (0-based) at the given site and returns the action and
	// score charge. It must not touch the simulator.
	Decide(site uint32, attempt int, c cps.Bits) Decision
	// Done notifies the policy that a block at site resolved — committed
	// in hardware (fellBack=false) or left for the fallback path
	// (fellBack=true) — after the given number of hardware attempts.
	// Stateless policies ignore it; "adaptive" learns from it.
	Done(site uint32, attempts int, fellBack bool)
}

// throttleExtra deepens the backoff window for Throttle decisions: the
// exponential window of core.Backoff is widened by this many doublings.
const throttleExtra = 3

// Engine drives one atomic block's retry loop. It is a value type: embed
// it in a stack frame (Start), feed it every failure (OnFailure), and
// notify the outcome (OnCommit / OnFallback). The zero Engine is not
// usable; always construct through Start.
type Engine struct {
	pol     Policy
	site    uint32
	score   float64
	attempt int
}

// Start opens a new block at the given site under pol. Site identifiers
// are caller-chosen stable values (core.PC of a name, or 0 for a
// system-wide site); the adaptive policy keys its learning on them.
func Start(pol Policy, site uint32) Engine {
	return Engine{pol: pol, site: site}
}

// Score returns the accumulated failure score.
func (e *Engine) Score() float64 { return e.score }

// Exhausted reports whether the failure score has reached the budget.
// Callers consult it after handling a Wait action, because a Wait may
// carry a score charge (TLE charges a held lock half a failure).
func (e *Engine) Exhausted() bool { return e.score >= e.pol.Budget() }

// OnFailure consumes one failed attempt's CPS value: it asks the policy,
// applies the score charge, performs any Backoff/Throttle delay on strand
// s (charging simulated cycles through core.Backoff's seeded exponential
// jitter), and returns the action the caller must complete.
//
// The caller's contract:
//
//   - Retry, Backoff, Throttle: retry the hardware transaction (any
//     delay has already been charged).
//   - Wait: perform the system-specific wait, then consult Exhausted.
//   - Fallback: stop attempting; call OnFallback when committing to the
//     fallback path.
//
// OnFailure itself never returns Fallback for a Wait decision: the
// caller's wait must happen first (TLE waits for the lock, PhTM for the
// software stragglers), and only then does it re-check the budget.
func (e *Engine) OnFailure(s *sim.Strand, c cps.Bits) Action {
	d := e.pol.Decide(e.site, e.attempt, c)
	e.score += d.Score
	switch d.Action {
	case Backoff:
		core.Backoff(s, e.attempt)
	case Throttle:
		core.Backoff(s, e.attempt+throttleExtra)
	}
	e.attempt++
	if d.Action == Wait {
		return Wait
	}
	if d.Action == Fallback || e.score >= e.pol.Budget() {
		return Fallback
	}
	return d.Action
}

// OnCommit notifies the policy that the block committed in hardware.
func (e *Engine) OnCommit() { e.pol.Done(e.site, e.attempt+1, false) }

// OnFallback notifies the policy that the block left for the fallback
// path (after OnFailure returned Fallback, or after a caller-side Wait
// found the budget exhausted or its condition hopeless).
func (e *Engine) OnFallback() { e.pol.Done(e.site, e.attempt, true) }

// Tuning carries the numeric knobs of the built-in policies. TLE, PhTM
// and HyTM below state each system's values once; a caller that varies a
// knob copies its system's Tuning, changes the field and builds the policy
// with New.
type Tuning struct {
	// Budget is the failure score at which the engine falls back.
	Budget float64
	// UCTIWeight is the score of a UCTI-flagged failure (Section 8.1
	// counts it one half: the companion bits may be misspeculation
	// artifacts, so the failure is only weak evidence).
	UCTIWeight float64
	// UCTIBackoff also backs off on a UCTI failure whose companion bits
	// intersect BackoffOn (TLE does; PhTM and HyTM retry immediately).
	UCTIBackoff bool
	// BackoffOn lists the CPS bits that trigger exponential backoff
	// before the retry (coherence conflicts).
	BackoffOn cps.Bits
	// TCCAction is the verdict for the software-convention explicit
	// abort (CPS exactly TCC): Wait for TLE and PhTM, Backoff for HyTM.
	TCCAction Action
	// TCCWeight is the score charge of a TCC abort.
	TCCWeight float64
}

// giveUp lists the CPS bits that mean the block can never commit in
// hardware (unsupported instructions, divide, precise exceptions): the
// Section 6.1 reasons that never go away.
const giveUp = cps.INST | cps.FP | cps.PREC

// TLE returns lock elision's rules: a budget of 8 with a UCTI failure
// counting one half (Section 8.1's "8 and one half"), backoff on COH, also
// when UCTI flags it, and a TCC abort — the lock is held — served by
// waiting for the lock at half a failure.
func TLE() Tuning {
	return Tuning{Budget: 8, UCTIWeight: 0.5, UCTIBackoff: true, BackoffOn: cps.COH, TCCAction: Wait, TCCWeight: 0.5}
}

// PhTM returns PhTM's rules: TLE's budget and UCTI weight, but a UCTI
// failure retries at once, because PhTM's uninstrumented hardware path
// carries no evidence of contention, and a TCC abort — software
// transactions are still draining — is waited out free of charge.
func PhTM() Tuning {
	return Tuning{Budget: 8, UCTIWeight: 0.5, BackoffOn: cps.COH, TCCAction: Wait, TCCWeight: 0}
}

// HyTM returns HyTM's rules: a smaller budget of 6, because its
// instrumented hardware path costs about twice PhTM's, and a TCC abort —
// the ownership check found a software owner, which is making progress
// concurrently — backs off at half a failure instead of waiting.
func HyTM() Tuning {
	return Tuning{Budget: 6, UCTIWeight: 0.5, BackoffOn: cps.COH, TCCAction: Backoff, TCCWeight: 0.5}
}

// New builds one of the built-in policies ("naive", "paper", "adaptive")
// by name. Each experiment cell builds fresh instances so learning state
// never leaks between cells. A policy defined elsewhere needs no name: pass
// its instance to tle.New or jvm.New, or set it as the Policy of
// phtm.Config or hytm.Config.
func New(name string, t Tuning) (Policy, error) {
	switch name {
	case "naive":
		return &Naive{t: t}, nil
	case "paper":
		return &Paper{t: t}, nil
	case "adaptive":
		return NewAdaptive(t), nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q; known: [adaptive naive paper]", name)
}

// MustNew is New for statically known names; it panics on error.
func MustNew(name string, t Tuning) Policy {
	p, err := New(name, t)
	if err != nil {
		panic(err)
	}
	return p
}
