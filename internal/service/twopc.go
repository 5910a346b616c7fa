package service

import (
	"slices"

	"rocktm/internal/core"
	"rocktm/internal/sim"
)

// Two-phase commit over single-shard TM transactions. The coordinator
// (the first op's shard) drives each participant through a *prepare* TM
// transaction — validate the keys, check/claim per-key lock-owner words,
// stage the operation — and then through a *commit* (apply staged ops,
// release owners) or *abort* (release owners, staged words become inert)
// TM transaction. Atomicity inside each shard comes from the shard's own
// TM system; atomicity across shards comes from the owner words: a key
// claimed by transaction T blocks any other transaction's prepare until
// T commits or aborts, and a single-shard op that races a prepared key
// simply sees the pre-transaction table state (staged ops are invisible
// until the commit transaction applies them).
//
// Failure model: the coordinator can crash after any prefix of prepares
// (CoordFailPct in Config; failAfter in RunTxn). Recovery is
// presumed-abort — with no commit decision recorded, every prepared
// participant is driven through the abort transaction, which restores
// exactly the pre-transaction state. Duplicate prepare delivery is
// idempotent: a participant that sees its own txid as owner re-stages
// and acks again.

// Branch sites of the 2PC bodies.
var (
	pcPrepOwner  = core.PC("service.prepare.owner")
	pcAbortOwner = core.PC("service.abort.owner")
)

// participant is one shard's share of a cross-shard transaction.
type participant struct {
	sh  *Shard
	ops []Op
}

// participants groups ops by shard in first-touch order. A transaction
// touching the same shard twice collapses to one participant with both
// ops — one prepare, one commit — not two independent legs. The groups
// and their ops live in the fleet's scratch, valid until the next call.
func (f *Fleet) participants(ops []Op) []participant {
	parts := f.parts[:0]
	for _, op := range ops {
		id := f.router.Shard(op.Key)
		if !slices.ContainsFunc(parts, func(p participant) bool { return p.sh.id == id }) {
			parts = append(parts, participant{sh: f.shards[id]})
		}
	}
	// Each group's ops, in their transaction order, are one run of grouped.
	grouped := slices.Grow(f.partOps[:0], len(ops))
	for i := range parts {
		lo := len(grouped)
		for _, op := range ops {
			if f.router.Shard(op.Key) == parts[i].sh.id {
				grouped = append(grouped, op)
			}
		}
		parts[i].ops = grouped[lo:]
	}
	f.parts, f.partOps = parts, grouped
	return parts
}

// TxnOutcome is one cross-shard transaction's result.
type TxnOutcome struct {
	// Committed is whether the transaction took effect; an aborted
	// transaction left every shard at its pre-transaction state.
	Committed bool
	// Completed is the fleet cycle the coordinator observed the final ack.
	Completed int64
}

// leg is the 2PC phase being run on one participant — its prepare, commit
// or abort — and what its bodies read and write. The bodies are bound
// once per fleet (bind), as hashtable.Session binds its operations, and
// the commit's scratch grows to the largest leg and is reused, so a leg
// makes no closure and, once the scratch has grown, allocates nothing.
type leg struct {
	sh   *Shard
	txid uint64
	ops  []Op
	// body is the leg's strand-0 body; dur the cycles it took.
	body func(*sim.Strand)
	dur  int64
	// voted is the prepare body's vote.
	voted bool
	// nodes, inserted and removed are the commit body's per-op scratch.
	nodes    []sim.Addr
	inserted []bool
	removed  []sim.Addr

	// Bound bodies: onStrand0 is the phase's machine body; prepare, commit
	// and abort its strand bodies; the *Tx fields their TM transactions.
	onStrand0, prepare, commit, abort func(*sim.Strand)
	prepareTx, commitTx, abortTx      func(core.Ctx)
}

// bind binds l's bodies to l, once per fleet.
func (l *leg) bind() {
	l.onStrand0 = l.runStrand0
	l.prepare, l.commit, l.abort = l.runPrepare, l.runCommit, l.runAbort
	l.prepareTx, l.commitTx, l.abortTx = l.prepareBody, l.commitBody, l.abortBody
}

// phase runs body on strand 0 of sh's machine for txid's ops, starting no
// earlier than fleet cycle earliest and no earlier than the shard being
// free, and returns the fleet cycle at which the phase completes. Shard
// CPU time advances by exactly the cycles the body consumed.
func (f *Fleet) phase(sh *Shard, earliest int64, txid uint64, ops []Op, body func(*sim.Strand)) int64 {
	start := earliest
	if sh.busyUntil > start {
		start = sh.busyUntil
	}
	l := &f.leg
	l.sh, l.txid, l.ops, l.body = sh, txid, ops, body
	sh.m.Run(l.onStrand0)
	sh.busyUntil = start + l.dur
	return sh.busyUntil
}

// runStrand0 runs the leg's body on strand 0 and times it; the other
// strands have nothing to do.
func (l *leg) runStrand0(st *sim.Strand) {
	if st.ID() != 0 {
		return
	}
	t0 := st.Clock()
	l.body(st)
	l.dur = st.Clock() - t0
}

// PrepareShard runs the prepare transaction for txid's ops on shard i,
// dispatched at fleet cycle at: inside one TM transaction it checks every
// key's owner word (free, or already txid — duplicate delivery is
// idempotent), performs a validation read of each key, then claims the
// owners and stages op kind and value in simulated memory. It reports
// whether the participant voted yes and the fleet cycle of the ack.
func (f *Fleet) PrepareShard(i int, at int64, txid uint64, ops []Op) (bool, int64) {
	done := f.phase(f.shards[i], at, txid, ops, f.leg.prepare)
	return f.leg.voted, done
}

func (l *leg) runPrepare(st *sim.Strand) { l.sh.sys.Atomic(st, l.prepareTx) }

func (l *leg) prepareBody(c core.Ctx) {
	sh := l.sh
	ok := true
	for _, op := range l.ops {
		owner := c.Load(sh.lockOwner + sim.Addr(op.Key))
		c.Branch(pcPrepOwner, owner != 0, true)
		if owner != 0 && uint64(owner) != l.txid {
			ok = false
			break
		}
	}
	if ok {
		for _, op := range l.ops {
			sh.tab.Lookup(c, op.Key) // validation read
			c.Store(sh.lockOwner+sim.Addr(op.Key), sim.Word(l.txid))
			c.Store(sh.stagedOp+sim.Addr(op.Key), sim.Word(op.Kind)+1)
			c.Store(sh.stagedVal+sim.Addr(op.Key), op.Val)
		}
	}
	// Host flag is written unconditionally at the end of the body, so an
	// aborted-and-retried attempt cannot leave a stale vote.
	l.voted = ok
}

// CommitShard runs the commit transaction for txid's ops on shard i:
// apply every staged op to the table and release the owner and staged
// words, all in one TM transaction. Insert nodes are preallocated before
// the atomic block (the Session pattern), and losers are returned to the
// pool after it.
func (f *Fleet) CommitShard(i int, at int64, txid uint64, ops []Op) int64 {
	return f.phase(f.shards[i], at, txid, ops, f.leg.commit)
}

func (l *leg) runCommit(st *sim.Strand) {
	sh, n := l.sh, len(l.ops)
	l.nodes = slices.Grow(l.nodes[:0], n)[:n]
	l.inserted = slices.Grow(l.inserted[:0], n)[:n]
	l.removed = slices.Grow(l.removed[:0], n)[:n]
	for j, op := range l.ops {
		l.nodes[j] = 0
		if op.Kind == Insert {
			l.nodes[j] = sh.tab.AllocNode(st, op.Key, op.Val)
		}
	}
	sh.sys.Atomic(st, l.commitTx)
	for j, op := range l.ops {
		if op.Kind == Insert && !l.inserted[j] {
			sh.tab.FreeNode(st, l.nodes[j])
		}
		if l.removed[j] != 0 {
			sh.tab.FreeNode(st, l.removed[j])
		}
	}
}

func (l *leg) commitBody(c core.Ctx) {
	sh := l.sh
	// Reset host-side results first: the body may retry.
	for j := range l.ops {
		l.inserted[j] = false
		l.removed[j] = 0
	}
	for j, op := range l.ops {
		switch op.Kind {
		case Lookup:
			sh.tab.Lookup(c, op.Key)
		case Insert:
			l.inserted[j] = sh.tab.InsertNode(c, op.Key, l.nodes[j])
		default:
			l.removed[j] = sh.tab.DeleteNode(c, op.Key)
		}
		c.Store(sh.lockOwner+sim.Addr(op.Key), 0)
		c.Store(sh.stagedOp+sim.Addr(op.Key), 0)
		c.Store(sh.stagedVal+sim.Addr(op.Key), 0)
	}
}

// AbortShard runs the abort transaction for txid's ops on shard i:
// release every owner word still held by txid. Staged op/value words are
// left behind as inert garbage — semantic shard state is the table plus
// the owner words, and both are exactly their pre-transaction values
// after an abort.
func (f *Fleet) AbortShard(i int, at int64, txid uint64, ops []Op) int64 {
	return f.phase(f.shards[i], at, txid, ops, f.leg.abort)
}

func (l *leg) runAbort(st *sim.Strand) { l.sh.sys.Atomic(st, l.abortTx) }

func (l *leg) abortBody(c core.Ctx) {
	for _, op := range l.ops {
		a := l.sh.lockOwner + sim.Addr(op.Key)
		owner := c.Load(a)
		c.Branch(pcAbortOwner, uint64(owner) == l.txid, true)
		if uint64(owner) == l.txid {
			c.Store(a, 0)
		}
	}
}

// crashRecoveryRPCs is the extra round trips a crashed coordinator's
// recovery costs before the presumed-abort pass starts.
const crashRecoveryRPCs = 4

// RunTxn executes one cross-shard transaction whose coordinator is
// dispatched at fleet cycle at. failAfter < 0 is the normal path;
// failAfter = k injects a coordinator crash after k successful prepares
// (k past the participant count crashes after all prepares — still an
// abort, because no commit decision was recorded). Every phase costs one
// RPC each way; phases run sequentially in participant order, so the
// transaction's latency scales with its shard span.
func (f *Fleet) RunTxn(at int64, ops []Op, failAfter int) TxnOutcome {
	txid := f.nextTxn
	f.nextTxn++
	parts := f.participants(ops)
	crash := failAfter >= 0
	limit := len(parts)
	if crash && failAfter < limit {
		limit = failAfter
	}
	tc := at
	prepared := 0
	allYes := true
	for i := 0; i < limit; i++ {
		p := parts[i]
		ok, done := f.PrepareShard(p.sh.id, tc+f.cfg.RPCCycles, txid, p.ops)
		tc = done + f.cfg.RPCCycles
		prepared = i + 1
		if !ok {
			allYes = false
			break
		}
	}
	commit := allYes && !crash && prepared == len(parts)
	if crash {
		tc += crashRecoveryRPCs * f.cfg.RPCCycles
	}
	for i := 0; i < prepared; i++ {
		p := parts[i]
		var done int64
		if commit {
			done = f.CommitShard(p.sh.id, tc+f.cfg.RPCCycles, txid, p.ops)
		} else {
			done = f.AbortShard(p.sh.id, tc+f.cfg.RPCCycles, txid, p.ops)
		}
		tc = done + f.cfg.RPCCycles
	}
	if commit {
		f.committed2PC++
	} else {
		f.aborted2PC++
	}
	return TxnOutcome{Committed: commit, Completed: tc}
}
