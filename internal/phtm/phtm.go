// Package phtm implements Phased Transactional Memory (Lev, Moir, Nussbaum
// — TRANSACT 2007): the system as a whole is either in a HARDWARE phase, in
// which atomic blocks run as *uninstrumented* best-effort hardware
// transactions (they only read the count of active software transactions,
// so the fast path is nearly as cheap as raw HTM), or in a SOFTWARE phase,
// in which blocks run on the STM back end. A block whose hardware attempts
// keep failing flips the system into the software phase; after a number of
// software commits the system drifts back to hardware.
//
// Because a hardware transaction's first act is to read the
// software-transaction count, any software transaction beginning mid-flight
// dooms it through plain coherence — phase changes need no fences or
// handshakes.
//
// The retry loop is policy.Run under Config.Policy, which DefaultConfig
// sets to the paper's Section 6.1 heuristics ("paper" over policy.PhTM()).
// PhTM supplies only its own paths: the uninstrumented hardware attempt,
// a wait for the policy's Wait verdict — the explicit TCC abort means
// software transactions are still draining, so it spins until the
// stragglers finish (or the whole system flips to the software phase
// under us) — and the phase flip it falls back to.
package phtm

import (
	"rocktm/internal/core"
	"rocktm/internal/cps"
	"rocktm/internal/obs"
	"rocktm/internal/policy"
	"rocktm/internal/rock"
	"rocktm/internal/sim"
)

// Config configures a PhTM system.
type Config struct {
	// Policy decides the fate of each failed hardware attempt; a block
	// whose attempts it abandons triggers the switch to the software
	// phase. Its Wait verdict is always served by the software-straggler
	// spin. It must be set.
	Policy policy.Policy
	// SWHold is how many software commits the software phase lasts before
	// the system drifts back to the hardware phase.
	SWHold sim.Word
}

// DefaultConfig returns the configuration used in the experiments: a
// fresh "paper" policy over policy.PhTM() and a 16-commit software hold.
func DefaultConfig() Config {
	return Config{Policy: policy.MustNew("paper", policy.PhTM()), SWHold: 16}
}

// System is a PhTM instance over a software TM back end.
type System struct {
	name    string
	back    core.System
	cfg     Config
	swMode  sim.Addr // software-phase countdown; 0 = hardware phase
	swCount sim.Addr // active software transactions
	stats   *core.Stats
}

// New builds a PhTM system over machine m and software TM back end back.
func New(m *sim.Machine, back core.System, cfg Config) *System {
	return &System{
		name:    "phtm",
		back:    back,
		cfg:     cfg,
		swMode:  m.Mem().AllocLines(sim.WordsPerLine),
		swCount: m.Mem().AllocLines(sim.WordsPerLine),
		stats:   core.NewStats(),
	}
}

// Name implements core.System.
func (p *System) Name() string { return p.name }

// SetName overrides the reported name ("phtm-tl2").
func (p *System) SetName(n string) { p.name = n }

// Stats implements core.System: a merged snapshot of hardware-path and
// back-end counters.
func (p *System) Stats() *core.Stats {
	out := core.NewStats()
	out.Merge(p.stats)
	out.Merge(p.back.Stats())
	return out
}

// Atomic implements core.System.
func (p *System) Atomic(s *sim.Strand, body func(core.Ctx)) {
	if s.Load(p.swMode) == 0 {
		hw := func(tx rock.Txn) {
			if tx.Load(p.swCount) != 0 {
				tx.Abort() // software stragglers still draining
			}
			body(tx)
		}
		// The explicit abort: software transactions are still active. That
		// is not this block's fault — wait for the stragglers to drain
		// rather than burning the failure budget, and fall back at once if
		// the whole system moved to the software phase under us.
		wait := func() bool {
			for spin := 0; s.Load(p.swCount) != 0 && s.Load(p.swMode) == 0; spin++ {
				core.Backoff(s, spin)
			}
			return s.Load(p.swMode) == 0
		}
		if policy.Run(s, p.cfg.Policy, p.stats, func() (bool, cps.Bits) { return rock.Try(s, hw) }, wait) {
			return
		}
		// Trigger the software phase.
		s.Store(p.swMode, p.cfg.SWHold)
		s.TraceEvent(obs.EvModeSoftware, uint64(p.cfg.SWHold))
		s.TraceEvent(obs.EvFallback, 0)
	}
	// Software phase: announce, run on the STM, withdraw, and drift the
	// phase back toward hardware.
	s.Add(p.swCount, 1)
	p.back.Atomic(s, body)
	s.Add(p.swCount, ^sim.Word(0))
	if mode := s.Load(p.swMode); mode > 0 {
		if _, ok := s.CAS(p.swMode, mode, mode-1); ok && mode == 1 {
			// This commit completed the software hold: the system has
			// drifted back into the hardware phase.
			s.TraceEvent(obs.EvModeHardware, 0)
		}
	}
}

// AtomicRO implements core.System.
func (p *System) AtomicRO(s *sim.Strand, body func(core.Ctx)) { p.Atomic(s, body) }
