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
// Retry intelligence lives in the shared internal/policy engine:
// Config.Policy drives the hardware attempts, and DefaultConfig sets it to
// the paper's Section 6.1 heuristics ("paper" over policy.PhTM()). The one
// PhTM-specific rule is the explicit TCC abort — it means software
// transactions are still draining, so the engine's Wait verdict is
// served here by spinning until the stragglers finish (or the whole
// system flips to the software phase under us).
package phtm

import (
	"rocktm/internal/core"
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
	st := p.stats
	if s.Load(p.swMode) == 0 {
		st.HWBlocks++
		// Bind the hardware attempt once per block, not once per retry, so
		// the failure loop allocates nothing.
		hwBody := func(tx rock.Txn) {
			if tx.Load(p.swCount) != 0 {
				tx.Abort() // software stragglers still draining
			}
			body(rock.Ctx{T: tx})
		}
		eng := policy.Start(p.cfg.Policy, 0)
	attempts:
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
			switch eng.OnFailure(s, c) {
			case policy.Fallback:
				break attempts
			case policy.Wait:
				// The explicit abort: software transactions are still
				// active. That is not this block's fault — wait for the
				// stragglers to drain rather than burning the failure
				// budget (unless the whole system moved to the software
				// phase under us).
				for spin := 0; s.Load(p.swCount) != 0 && s.Load(p.swMode) == 0; spin++ {
					core.Backoff(s, spin)
				}
				if s.Load(p.swMode) != 0 || eng.Exhausted() {
					break attempts // phase moved under us
				}
			}
		}
		eng.OnFallback()
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
