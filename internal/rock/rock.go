// Package rock exposes the simulated Rock processor's best-effort hardware
// transactional memory at the level software sees it: a chkpt instruction
// that begins speculative execution and names a fail address, a commit
// instruction that ends it, and the CPS register that explains failures.
//
// The Go rendering of the fail-address control flow is Try: the body runs
// speculatively, any failing transactional instruction unwinds it (via a
// private panic, matching the hardware discarding all effects), and Try
// returns the CPS contents. Software retry policy — the subject of much of
// the paper — lives above this layer, in internal/policy and the TM
// systems that drive it (see docs/ABORT-PLAYBOOK.md).
package rock

import (
	"rocktm/internal/cps"
	"rocktm/internal/sim"
)

// txFailed is the private unwind token for a transaction abort.
type txFailed struct{}

// Txn is the handle the transaction body uses for transactional
// instructions. Its methods never return on failure: they unwind to the
// enclosing Try, exactly as control resumes at the chkpt fail address on
// the hardware.
//
// Txn is a one-word value (the strand pointer) passed by value: taking its
// address inside Try used to escape one Txn to the heap per hardware
// attempt, which dominated the allocation profile of the retry loops.
// It has every core.Ctx method, so a body written against core.Ctx runs
// on it directly, and converting it to core.Ctx stores the pointer in the
// interface without allocating.
type Txn struct {
	s *sim.Strand
}

// Strand returns the underlying strand (for cost accounting helpers).
func (t Txn) Strand() *sim.Strand { return t.s }

// Load performs a transactional load.
func (t Txn) Load(a sim.Addr) sim.Word {
	w, ok := t.s.TxLoad(a)
	if !ok {
		panic(txFailed{})
	}
	return w
}

// Store performs a transactional store (gated until commit).
func (t Txn) Store(a sim.Addr, w sim.Word) {
	if !t.s.TxStore(a, w) {
		panic(txFailed{})
	}
}

// Branch models a conditional branch at stable site pc. dependsOnLoad marks
// predicates computed from the immediately preceding load (tree walks, list
// traversals), which on Rock can execute before the load resolves and abort
// with UCTI.
func (t Txn) Branch(pc uint32, taken bool, dependsOnLoad bool) {
	if !t.s.TxBranch(pc, taken, dependsOnLoad) {
		panic(txFailed{})
	}
}

// Abort executes the conventional always-taken trap
// (ta %xcc, %g0 + 15), explicitly aborting with CPS=TCC.
func (t Txn) Abort() {
	t.s.TxAbortTrap()
	panic(txFailed{})
}

// Call models a function call (register-window save/restore), which aborts
// Rock transactions with CPS=INST.
func (t Txn) Call() {
	t.s.TxSaveRestore()
	panic(txFailed{})
}

// Div models a divide instruction (unsupported; CPS=FP).
func (t Txn) Div() {
	t.s.TxDiv()
	panic(txFailed{})
}

// Trap models a conditional trap; if taken the transaction aborts (TCC).
func (t Txn) Trap(taken bool) {
	if !t.s.TxTrap(taken) {
		panic(txFailed{})
	}
}

// Exec models executing code from the given page (ITLB misses abort).
func (t Txn) Exec(codePage int32) {
	if !t.s.TxExec(codePage) {
		panic(txFailed{})
	}
}

// Advance charges pure compute cycles inside the transaction.
func (t Txn) Advance(n int64) { t.s.Advance(n) }

// Try executes body as one hardware transaction attempt on strand s.
// It returns (true, 0) if the transaction committed, and (false, cps) with
// the CPS register contents if it aborted for any reason.
func Try(s *sim.Strand, body func(Txn)) (committed bool, status cps.Bits) {
	s.TxBegin()
	if runBody(Txn{s: s}, body) {
		return false, s.CPS()
	}
	if !s.TxCommit() {
		return false, s.CPS()
	}
	return true, 0
}

// runBody executes one attempt body, converting the txFailed unwind panic
// into a boolean. It is a top-level function with a named return so the
// single open-coded defer and its closure stay off the heap (the previous
// inline func literal allocated a closure pair per attempt).
func runBody(t Txn, body func(Txn)) (failed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(txFailed); !ok {
				panic(r)
			}
			failed = true
		}
	}()
	body(t)
	return false
}

// WarmTLB performs the paper's TLB-warmup idiom on every page overlapping
// [a, a+words): a "dummy" compare-and-swap that attempts to change a word
// from zero to zero. This establishes the TLB mapping and write permission
// without modifying data, after which transactional stores to the page can
// succeed.
func WarmTLB(s *sim.Strand, a sim.Addr, words int) {
	if words <= 0 {
		return
	}
	last := a + sim.Addr(words-1)
	for p := sim.PageOf(a); p <= sim.PageOf(last); p++ {
		probe := sim.Addr(p) << sim.PageShift
		if probe < a {
			probe = a
		}
		s.CAS(probe, 0, 0)
	}
}
