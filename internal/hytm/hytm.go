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
// The software side is SkySTM (internal/stm/sky): a hardware store must
// see software *readers*, and only Sky's semi-visible readers leave a mark
// a hardware transaction can check. Its HWCtx is the instrumented
// hardware context.
//
// The retry loop is policy.Run under Config.Policy, which DefaultConfig
// sets to "paper" over policy.HyTM(). HyTM supplies only its instrumented
// hardware attempt and the STM transaction it falls back to; it has no
// wait. Its explicit TCC abort means the instrumentation found a software
// transaction owning something we touched, and the right reaction is a
// charged backoff-retry — not a wait — because the owner is making
// progress concurrently.
package hytm

import (
	"rocktm/internal/core"
	"rocktm/internal/cps"
	"rocktm/internal/obs"
	"rocktm/internal/policy"
	"rocktm/internal/rock"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
)

// Config configures a HyTM system.
type Config struct {
	// Policy decides the fate of each failed hardware attempt; a block
	// whose attempts it abandons falls back to a software transaction. It
	// must be set.
	Policy policy.Policy
}

// DefaultConfig returns the configuration used in the experiments: a
// fresh "paper" policy over policy.HyTM().
func DefaultConfig() Config {
	return Config{Policy: policy.MustNew("paper", policy.HyTM())}
}

// System is a HyTM instance over a SkySTM back end, the STM whose
// semi-visible readers a hardware store can check.
type System struct {
	back  *sky.System
	pol   policy.Policy
	stats *core.Stats
}

// New builds a HyTM system over back (which must not be used standalone
// concurrently, or its statistics will blend).
func New(back *sky.System, cfg Config) *System {
	return &System{
		back:  back,
		pol:   cfg.Policy,
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
	hw := func(tx rock.Txn) {
		body(h.back.HWCtx(tx))
	}
	// HyTM's tuning maps TCC to Backoff, so a Wait verdict only comes from
	// a custom policy; with no system condition to wait on, the budget
	// check is all that remains.
	if policy.Run(s, h.pol, h.stats, func() (bool, cps.Bits) { return rock.Try(s, hw) }, nil) {
		return
	}
	// Software fallback; the back end retries internally until it commits.
	s.TraceEvent(obs.EvFallback, 0)
	h.back.Atomic(s, body)
}

// AtomicRO implements core.System.
func (h *System) AtomicRO(s *sim.Strand, body func(core.Ctx)) { h.Atomic(s, body) }
