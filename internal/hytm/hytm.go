// Package hytm implements Hybrid Transactional Memory (Damron, Fedorova,
// Lev, Luchangco, Moir, Nussbaum — ASPLOS 2006): every atomic block first
// attempts to run as a best-effort hardware transaction whose every access
// is instrumented to check the STM's ownership metadata, and transparently
// falls back to a pure software transaction when hardware attempts keep
// failing. Hardware and software transactions may run concurrently — the
// access-level checks are what keep them from stepping on each other —
// which distinguishes HyTM from PhTM's global phases, and is also why its
// hardware path is roughly twice as expensive as PhTM's uninstrumented one
// (the factor the paper observes in Figure 1).
//
// Retry intelligence lives in the shared internal/policy engine (policy
// "paper" with HyTM's tuning). HyTM's one system-specific wrinkle is the
// explicit TCC abort: here it means the instrumentation found a software
// transaction owning something we touched, and the right reaction is a
// charged backoff-retry — not a wait — because the owner is making
// progress concurrently.
package hytm

import (
	"rocktm/internal/core"
	"rocktm/internal/obs"
	"rocktm/internal/policy"
	"rocktm/internal/rock"
	"rocktm/internal/sim"
	"rocktm/internal/stm"
)

// Config tunes the retry policy.
type Config struct {
	// MaxFailures is the failure score at which the block falls back to a
	// software transaction.
	MaxFailures float64
	// UCTIWeight is the score of a UCTI-flagged failure.
	UCTIWeight float64
}

// DefaultConfig returns the policy used in the experiments: the shared
// internal/policy defaults, except for the smaller budget — HyTM's
// instrumented hardware path costs ~2x PhTM's, so burned attempts are
// twice as expensive.
func DefaultConfig() Config {
	return Config{MaxFailures: policy.DefaultHyTMBudget, UCTIWeight: policy.DefaultUCTIWeight}
}

// Tuning maps the config onto the shared policy-engine knobs — exported
// so experiments can build alternative policies (policy.MustNew) with
// HyTM's system-correct tuning: TCC (an ownership-check abort) maps to
// Backoff with a half-failure charge, because the owning software
// transaction is making progress concurrently.
func (c Config) Tuning() policy.Tuning {
	return policy.Tuning{
		Budget:      c.MaxFailures,
		UCTIWeight:  c.UCTIWeight,
		UCTIBackoff: false,
		GiveUp:      policy.DefaultGiveUp,
		BackoffOn:   policy.DefaultBackoffOn,
		TCCAction:   policy.Backoff,
		TCCWeight:   policy.DefaultTCCWeight,
	}
}

// System is a HyTM instance over a HybridSTM back end.
type System struct {
	back  stm.HybridSTM
	pol   policy.Policy
	stats *core.Stats
}

// New builds a HyTM system over back (which must not be used standalone
// concurrently, or its statistics will blend).
func New(back stm.HybridSTM, cfg Config) *System {
	return &System{
		back:  back,
		pol:   policy.MustNew("paper", cfg.Tuning()),
		stats: core.NewStats(),
	}
}

// Name implements core.System.
func (h *System) Name() string { return "hytm" }

// Stats implements core.System: a merged snapshot of the hardware-path
// counters and the software back end's.
func (h *System) Stats() *core.Stats {
	out := core.NewStats()
	out.Merge(h.stats)
	out.Merge(h.back.Stats())
	return out
}

// Atomic implements core.System.
func (h *System) Atomic(s *sim.Strand, body func(core.Ctx)) {
	st := h.stats
	st.HWBlocks++
	// Bind the hardware attempt once per block, not once per retry, so the
	// failure loop allocates nothing.
	hwBody := func(tx rock.Txn) {
		body(h.back.HWCtx(tx))
	}
	eng := policy.Start(h.pol, 0)
	for {
		st.HWAttempts++
		ok, c := rock.Try(s, hwBody)
		if ok {
			st.HWCommits++
			st.Ops++
			eng.OnCommit()
			return
		}
		st.RecordFailure(c)
		act := eng.OnFailure(s, c)
		if act == policy.Fallback {
			break
		}
		if act == policy.Wait {
			// HyTM's tuning maps TCC to Backoff, so Wait only surfaces
			// under a custom policy; with no system condition to wait on,
			// the budget check is all that remains.
			if eng.Exhausted() {
				break
			}
		}
	}
	// Software fallback; the back end retries internally until it commits.
	eng.OnFallback()
	s.TraceEvent(obs.EvFallback, 0)
	h.back.Atomic(s, body)
}

// AtomicRO implements core.System.
func (h *System) AtomicRO(s *sim.Strand, body func(core.Ctx)) { h.Atomic(s, body) }
