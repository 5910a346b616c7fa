// Package stm holds what the two software transactional memories share:
// the ownership-record (orec) table, the per-strand transaction descriptor
// Tx with its redo log and commit-time write locks, and Atomic, the one
// software retry loop. Each STM (stm/tl2, stm/sky) embeds Tx and supplies
// only its read barrier (Load) and its Commit, plus a Begin or End where
// its reader bookkeeping needs one.
//
// Orecs live in *simulated* memory. That single decision is what makes the
// hybrids work the way the paper's do: a hardware transaction that loads an
// orec has it in its read set, so a software transaction acquiring that
// orec dooms the hardware transaction through plain cache coherence — no
// extra mechanism required.
package stm

import (
	"rocktm/internal/core"
	"rocktm/internal/obs"
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
	// NoBound is the LockWrites bound that accepts an orec of any version.
	NoBound = ^sim.Word(0)
	// BookkeepCost approximates the thread-local read-/write-set logging
	// cost of one STM barrier, in cycles (the logs themselves are
	// cache-hot thread-local memory, so they are charged as compute rather
	// than simulated traffic).
	BookkeepCost = 2
)

// Locked reports whether orec value o is write-locked.
func Locked(o sim.Word) bool { return o&LockBit != 0 }

// Version extracts the version number from orec value o.
func Version(o sim.Word) sim.Word { return o >> 1 }

// MakeOrec builds an orec value from a version number.
func MakeOrec(version sim.Word) sim.Word { return version << 1 }

// Attempt is one STM's per-strand transaction as Atomic drives it: a
// core.Ctx for the body plus the three steps around it.
type Attempt interface {
	core.Ctx
	// Begin starts an attempt.
	Begin()
	// Commit tries to make a body that ran to its end take effect.
	Commit() bool
	// End closes every attempt, committed or not, releasing whatever the
	// attempt still holds.
	End()
}

// Atomic is the one software retry loop: it runs attempts of body on tx
// until one commits. Each attempt runs Begin, then the body, then Commit
// if the body ran to its end (stm.Abort unwinds it), then End. A commit
// counts one op; every failed attempt counts an abort and backs off.
func Atomic(s *sim.Strand, stats *core.Stats, tx Attempt, body func(core.Ctx)) {
	var c core.Ctx = tx
	for attempt := 0; ; attempt++ {
		tx.Begin()
		ok := runAttempt(body, c) && tx.Commit()
		tx.End()
		if ok {
			stats.Ops++
			stats.SWCommits++
			s.TraceEvent(obs.EvSWCommit, 0)
			return
		}
		stats.SWAborts++
		s.TraceEvent(obs.EvSWAbort, 0)
		core.Backoff(s, attempt)
	}
}

// retrySignal unwinds an aborted software transaction attempt.
type retrySignal struct{}

// Abort unwinds the current software transaction attempt; the enclosing
// Atomic retries it.
func Abort() {
	panic(retrySignal{})
}

// runAttempt executes body(c), converting an stm.Abort unwind into a false
// return. Body and context are passed separately (rather than pre-bound in a
// closure) so the retry loop allocates nothing per attempt.
func runAttempt(body func(core.Ctx), c core.Ctx) (ok bool) {
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

// Tx is the per-strand transaction descriptor both STMs embed: the
// strand, the redo log of buffered stores, and the orecs the commit has
// write-locked with their values before locking. It implements every
// core.Ctx method but Load, which is each STM's read barrier, and the
// Begin and End of Attempt.
type Tx struct {
	S     *sim.Strand
	orecs OrecTable

	addrs []sim.Addr // redo log, in program order
	vals  []sim.Word
	held  []sim.Addr // orecs locked by LockWrites
	prev  []sim.Word // their values before locking
}

// NewTx returns strand s's descriptor over orec table orecs.
func NewTx(s *sim.Strand, orecs OrecTable) Tx { return Tx{S: s, orecs: orecs} }

// Begin implements Attempt: empty the redo log.
func (t *Tx) Begin() {
	t.addrs = t.addrs[:0]
	t.vals = t.vals[:0]
}

// End implements Attempt: restore every orec still held to its value
// before locking. Publish releases them all, so only a failed commit
// leaves any.
func (t *Tx) End() {
	for i, orec := range t.held {
		t.S.Store(orec, t.prev[i])
	}
	t.held = t.held[:0]
	t.prev = t.prev[:0]
}

// Store implements core.Ctx: buffer the write until commit.
func (t *Tx) Store(a sim.Addr, w sim.Word) {
	t.addrs = append(t.addrs, a)
	t.vals = append(t.vals, w)
	t.S.Advance(BookkeepCost + 1)
}

// Branch implements core.Ctx (outside a hardware transaction a mispredict
// just costs cycles).
func (t *Tx) Branch(pc uint32, taken bool, _ bool) { t.S.Branch(pc, taken) }

// Div implements core.Ctx.
func (t *Tx) Div() { t.S.Advance(core.DivCost) }

// Call implements core.Ctx.
func (t *Tx) Call() { t.S.Advance(core.CallCost) }

// Strand implements core.Ctx.
func (t *Tx) Strand() *sim.Strand { return t.S }

// Buffered is read-own-writes: it returns the last value the attempt
// stored to a, or false if the attempt has not stored to a. A read barrier
// that returns the buffered value charges BookkeepCost for it (Buffered
// leaves that to the caller so that it inlines into the barrier).
func (t *Tx) Buffered(a sim.Addr) (sim.Word, bool) {
	for i := len(t.addrs) - 1; i >= 0; i-- {
		if t.addrs[i] == a {
			return t.vals[i], true
		}
	}
	return 0, false
}

// ReadOnly reports whether the attempt has buffered no store.
func (t *Tx) ReadOnly() bool { return len(t.addrs) == 0 }

// Owns reports whether the attempt holds orec's write lock.
func (t *Tx) Owns(orec sim.Addr) bool {
	for _, o := range t.held {
		if o == orec {
			return true
		}
	}
	return false
}

// Held returns the orecs the attempt holds, in locking order.
func (t *Tx) Held() []sim.Addr { return t.held }

// LockWrites write-locks the orec of every buffered store, each once. It
// fails on an orec that is locked or whose version is past bound, or on a
// lost CAS; the orecs locked so far stay held for End to restore.
func (t *Tx) LockWrites(bound sim.Word) bool {
	for _, a := range t.addrs {
		orec := t.orecs.OrecOf(a)
		if t.Owns(orec) {
			continue
		}
		o := t.S.Load(orec)
		if Locked(o) || Version(o) > bound {
			return false
		}
		if _, ok := t.S.CAS(orec, o, o|LockBit); !ok {
			return false
		}
		t.held = append(t.held, orec)
		t.prev = append(t.prev, o)
	}
	return true
}

// Publish applies the redo log in program order, then releases every held
// orec at version next(v), where v is its version before locking.
func (t *Tx) Publish(next func(v sim.Word) sim.Word) {
	for i, a := range t.addrs {
		t.S.Store(a, t.vals[i])
	}
	for i, orec := range t.held {
		t.S.Store(orec, MakeOrec(next(Version(t.prev[i]))))
	}
	t.held = t.held[:0]
	t.prev = t.prev[:0]
}
