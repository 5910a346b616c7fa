// Package stm holds the infrastructure shared by the software transactional
// memories: the ownership-record (orec) table, and the interface through
// which the HyTM hybrid composes with an STM back end (PhTM takes any
// core.System as its back end).
//
// Orecs live in *simulated* memory. That single decision is what makes the
// hybrids work the way the paper's do: a hardware transaction that loads an
// orec has it in its read set, so a software transaction acquiring that
// orec dooms the hardware transaction through plain cache coherence — no
// extra mechanism required.
package stm

import (
	"rocktm/internal/core"
	"rocktm/internal/rock"
	"rocktm/internal/sim"
)

// DefaultOrecs is the default ownership-table size. The paper notes its
// ownership table is "very large" so that distinct cache lines essentially
// never share an orec; 2^16 entries plays that role at our scales.
const DefaultOrecs = 1 << 16

// OrecTable maps cache lines to ownership records. Each orec is one word:
// version<<1 | writeLocked.
type OrecTable struct {
	base sim.Addr
	mask uint32
}

// NewOrecTable allocates a table of n orecs (n must be a power of two).
func NewOrecTable(mem *sim.Memory, n int) OrecTable {
	if n <= 0 || n&(n-1) != 0 {
		panic("stm: orec table size must be a positive power of two")
	}
	return OrecTable{base: mem.AllocLines(n), mask: uint32(n - 1)}
}

// OrecOf returns the address of the orec covering address a. Every address
// on one cache line maps to the same orec.
func (t OrecTable) OrecOf(a sim.Addr) sim.Addr {
	return t.base + sim.Addr(uint32(sim.LineOf(a))&t.mask)
}

// Index returns the orec index covering address a (for parallel tables such
// as reader counts).
func (t OrecTable) Index(a sim.Addr) uint32 {
	return uint32(sim.LineOf(a)) & t.mask
}

// Size returns the number of orecs.
func (t OrecTable) Size() int { return int(t.mask) + 1 }

// Base returns the address of orec 0 (orec index = address - Base).
func (t OrecTable) Base() sim.Addr { return t.base }

const (
	// LockBit marks an orec as write-locked.
	LockBit sim.Word = 1
)

// Locked reports whether orec value o is write-locked.
func Locked(o sim.Word) bool { return o&LockBit != 0 }

// Version extracts the version number from orec value o.
func Version(o sim.Word) sim.Word { return o >> 1 }

// MakeOrec builds an orec value from a version number.
func MakeOrec(version sim.Word) sim.Word { return version << 1 }

// HybridSTM is a software TM (a core.System) whose metadata a best-effort
// hardware transaction can check access-by-access, enabling HyTM: HWCtx
// returns an instrumented hardware execution context that aborts (explicit
// TCC trap) on any conflict with concurrent software transactions. Of the
// two STMs here only SkySTM supports this — hardware stores must be able to
// see software *readers*, which requires (semi-)visible reader metadata.
type HybridSTM interface {
	core.System
	HWCtx(t rock.Txn) core.Ctx
}

// retrySignal unwinds an aborted software transaction attempt.
type retrySignal struct{}

// Abort unwinds the current software transaction attempt; the enclosing
// Atomic retries it.
func Abort() {
	panic(retrySignal{})
}

// RunAttempt executes body(c), converting an stm.Abort unwind into a false
// return. Body and context are passed separately (rather than pre-bound in a
// closure) so the per-attempt retry loops in the STMs allocate nothing.
func RunAttempt(body func(core.Ctx), c core.Ctx) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isRetry := r.(retrySignal); !isRetry {
				panic(r)
			}
			ok = false
		}
	}()
	body(c)
	return true
}
