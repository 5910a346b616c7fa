// Package policy is the retry loop every hardware-first TM system runs
// its atomic blocks through, and the pluggable policies that decide the
// fate of each failed best-effort hardware transaction.
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
//     "adaptive" (learns an abort histogram and shifts its stance).
//   - Run: the one hardware-attempt loop. It owns the failure-score
//     budget, applies each Decision and tells the policy how the block
//     ended, so every TM system shares one exhaustion rule.
//
// A TM system supplies only its own paths: a hardware attempt, a wait for
// its Wait verdict, and the fallback it takes when Run reports that the
// block did not commit. The Wait action is the one escape hatch for
// system-specific semantics: an explicit TCC abort means "lock held"
// under TLE but "software phase active" under PhTM, so Run calls the
// system's wait and re-checks the budget before the next attempt.
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
	// are draining; HyTM handles TCC with Backoff instead). Run performs
	// no delay itself; it calls the system's wait and re-checks the
	// budget before retrying.
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
	// Score is added to the block's failure score; Run falls back once
	// the score reaches the policy's Budget. Fractional scores
	// implement the paper's "a UCTI failure counts half" refinement.
	Score float64
}

// Policy maps failed hardware attempts to decisions. Implementations must
// be deterministic (no host randomness, no wall clocks): simulated-time
// reproducibility of every experiment depends on it. A Policy instance is
// shared by every block of one system; per-block state (the failure score
// and the attempt count) lives in Run.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Budget is the failure score at which Run abandons hardware.
	Budget() float64
	// Decide inspects the CPS value of one failed attempt and returns the
	// action and score charge. It must not touch the simulator.
	Decide(c cps.Bits) Decision
	// Done notifies the policy that a block resolved — committed in
	// hardware (fellBack=false) or left for the fallback path
	// (fellBack=true) — after the given number of hardware attempts.
	// Stateless policies ignore it; "adaptive" learns from it.
	Done(attempts int, fellBack bool)
}

// throttleExtra deepens the backoff window for Throttle decisions: the
// exponential window of core.Backoff is widened by this many doublings.
const throttleExtra = 3

// Run drives one atomic block's hardware attempts under pol on strand s
// and reports whether the block committed in hardware. try makes one
// attempt and returns its outcome: committed, or the failure's CPS value.
// Run counts the block, each attempt, each commit (as an op) and each
// failure's CPS value into st.
//
// Before every attempt Run checks the failure score against the budget,
// so a zero budget makes no attempt. After a failure it applies the
// policy's Decision:
//
//   - Retry: the next attempt follows at once.
//   - Backoff, Throttle: a randomized exponential delay on s
//     (core.Backoff), three doublings deeper for Throttle.
//   - Wait: Run calls wait, the system's own wait, whatever the score;
//     wait returns false when the block should fall back at once. A nil
//     wait only re-checks the budget.
//   - Fallback: no further attempt.
//
// Run tells pol how the block ended exactly once (Policy.Done). On false
// the caller takes its fallback path, which counts its own op.
func Run(s *sim.Strand, pol Policy, st *core.Stats, try func() (bool, cps.Bits), wait func() bool) bool {
	st.HWBlocks++
	budget := pol.Budget()
	score, attempts := 0.0, 0
loop:
	for score < budget {
		attempts++
		st.HWAttempts++
		ok, c := try()
		if ok {
			st.HWCommits++
			st.Ops++
			pol.Done(attempts, false)
			return true
		}
		st.RecordFailure(c)
		d := pol.Decide(c)
		score += d.Score
		switch d.Action {
		case Backoff:
			core.Backoff(s, attempts-1)
		case Throttle:
			core.Backoff(s, attempts-1+throttleExtra)
		case Wait:
			if wait != nil && !wait() {
				break loop
			}
		case Fallback:
			break loop
		}
	}
	pol.Done(attempts, true)
	return false
}

// Tuning carries the numeric knobs of the built-in policies. TLE, PhTM
// and HyTM below state each system's values once; a caller that varies a
// knob copies its system's Tuning, changes the field and builds the policy
// with New.
type Tuning struct {
	// Budget is the failure score at which Run falls back.
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
