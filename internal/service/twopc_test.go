package service

import (
	"maps"
	"reflect"
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/locktm"
	"rocktm/internal/phtm"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
)

// testFleet builds a small fleet for white-box 2PC tests.
func testFleet(t *testing.T, shards int, router ShardMap, faults sim.FaultPlan, sys SystemBuilder) *Fleet {
	t.Helper()
	if sys == nil {
		sys = func(m *sim.Machine) core.System { return locktm.NewOneLock(m) }
	}
	f, err := New(Config{
		Shards:   shards,
		Strands:  2,
		KeyRange: 128,
		Buckets:  1 << 7,
		MemWords: 1 << 21,
		Seed:     7,
		System:   sys,
		Router:   router,
		Faults:   faults,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

// snapshot captures the semantic state of every shard: table contents
// plus lock-owner words.
func snapshot(f *Fleet) []map[uint64]sim.Word {
	var out []map[uint64]sim.Word
	for i := 0; i < f.Shards(); i++ {
		st := f.ShardState(i)
		for k, o := range f.LockOwners(i) {
			st[k|1<<63] = sim.Word(o) // fold owners in under a disjoint keyspace
		}
		out = append(out, st)
	}
	return out
}

// crossShardOps returns ops guaranteed to span two different shards.
func crossShardOps(f *Fleet, kind OpKind) []Op {
	ops := []Op{{Kind: kind, Key: 0, Val: 99}}
	for k := uint64(1); ; k++ {
		if f.Router().Shard(k) != f.Router().Shard(0) {
			ops = append(ops, Op{Kind: kind, Key: k, Val: 99})
			return ops
		}
	}
}

// A committed cross-shard transaction applies every leg.
func TestTxnCommitAppliesAllLegs(t *testing.T) {
	f := testFleet(t, 2, nil, sim.FaultPlan{}, nil)
	ops := crossShardOps(f, Insert)
	// Make both keys absent so the inserts are observable.
	for _, op := range ops {
		f.RunTxn(0, []Op{{Kind: Delete, Key: op.Key}}, -1)
	}
	out := f.RunTxn(0, ops, -1)
	if !out.Committed {
		t.Fatal("transaction did not commit")
	}
	for _, op := range ops {
		sh := f.Router().Shard(op.Key)
		if v, ok := f.ShardState(sh)[op.Key]; !ok || v != 99 {
			t.Fatalf("key %d on shard %d: got (%d,%v), want (99,true)", op.Key, sh, v, ok)
		}
	}
	for i := 0; i < f.Shards(); i++ {
		if owners := f.LockOwners(i); len(owners) != 0 {
			t.Fatalf("shard %d holds owners after commit: %v", i, owners)
		}
	}
}

// Coordinator crash after a partial prepare must drive the abort path
// and restore the exact pre-transaction state.
func TestCoordinatorCrashAfterPartialPrepare(t *testing.T) {
	f := testFleet(t, 3, nil, sim.FaultPlan{}, nil)
	ops := crossShardOps(f, Insert)
	before := snapshot(f)
	out := f.RunTxn(0, ops, 1) // crash after the first prepare
	if out.Committed {
		t.Fatal("crashed coordinator committed")
	}
	if got := snapshot(f); !reflect.DeepEqual(got, before) {
		t.Fatal("abort did not restore pre-transaction state")
	}
	if f.aborted2PC != 1 || f.committed2PC != 0 {
		t.Fatalf("counts = %d committed / %d aborted, want 0/1", f.committed2PC, f.aborted2PC)
	}
}

// Duplicate prepare delivery is idempotent: a participant that already
// voted yes for a txid votes yes again, and a single abort releases it.
func TestDuplicatePrepareIdempotent(t *testing.T) {
	f := testFleet(t, 2, nil, sim.FaultPlan{}, nil)
	ops := []Op{{Kind: Insert, Key: 3, Val: 5}}
	sh := f.Router().Shard(3)
	const txid = 42
	ok1, done := f.PrepareShard(sh, 0, txid, ops)
	ok2, _ := f.PrepareShard(sh, done, txid, ops)
	if !ok1 || !ok2 {
		t.Fatalf("votes = %v, %v; want yes, yes", ok1, ok2)
	}
	if owners := f.LockOwners(sh); owners[3] != txid {
		t.Fatalf("owner[3] = %v, want %d", owners[3], txid)
	}
	// A different transaction must be refused while the key is claimed.
	if ok, _ := f.PrepareShard(sh, 0, txid+1, ops); ok {
		t.Fatal("conflicting prepare voted yes")
	}
	f.AbortShard(sh, 0, txid, ops)
	if owners := f.LockOwners(sh); len(owners) != 0 {
		t.Fatalf("owners after abort: %v", owners)
	}
}

// A transaction touching the same shard twice collapses to one
// participant with both ops, and still commits both.
func TestSameShardTwiceCollapses(t *testing.T) {
	f := testFleet(t, 2, nil, sim.FaultPlan{}, nil)
	r := f.Router()
	var k1, k2 uint64 = 0, 0
	for k := uint64(1); k2 == 0; k++ {
		if r.Shard(k) == r.Shard(k1) {
			k2 = k
		}
	}
	ops := []Op{{Kind: Insert, Key: k1, Val: 7}, {Kind: Insert, Key: k2, Val: 7}}
	if parts := f.participants(ops); len(parts) != 1 || len(parts[0].ops) != 2 {
		t.Fatalf("participants = %d groups, want 1 with 2 ops", len(parts))
	}
	// Clear both keys, then commit the two-leg same-shard transaction.
	f.RunTxn(0, []Op{{Kind: Delete, Key: k1}}, -1)
	f.RunTxn(0, []Op{{Kind: Delete, Key: k2}}, -1)
	out := f.RunTxn(0, ops, -1)
	if !out.Committed {
		t.Fatal("same-shard transaction did not commit")
	}
	st := f.ShardState(r.Shard(k1))
	if st[k1] != 7 || st[k2] != 7 {
		t.Fatalf("state[%d]=%d state[%d]=%d, want 7 and 7", k1, st[k1], k2, st[k2])
	}
}

// twoPCSystems are the TM systems the 2PC properties run each shard on:
// a plain lock, and PhTM, whose hardware attempts can abort and retry a
// prepare or commit body.
var twoPCSystems = map[string]SystemBuilder{
	"one-lock": func(m *sim.Machine) core.System { return locktm.NewOneLock(m) },
	"phtm":     func(m *sim.Machine) core.System { return phtm.New(m, sky.New(m), phtm.DefaultConfig()) },
}

// Property: after ANY transaction — whatever the op mix, crash point,
// router or injected machine faults — each shard's table is exactly what a
// map model of the shard says, and no lock owner is left behind. A
// committed transaction applies every op in order; an aborted one leaves
// the pre-transaction state exactly. Random lookups, inserts and deletes
// over the whole keyspace run back to back, so each commit reuses the
// storage of earlier, larger legs; about one in four crashes the
// coordinator after a prefix of prepares. Exercised across routers, TM
// systems (plain lock and PhTM) and an adversarial fault profile.
func TestAbortRestoresStateProperty(t *testing.T) {
	for sysName, sys := range twoPCSystems {
		for _, routerName := range RouterNames() {
			for _, profile := range []string{"none", "inval"} {
				router, err := NewRouter(routerName, 3, 128)
				if err != nil {
					t.Fatal(err)
				}
				f := testFleet(t, 3, router, sim.FaultProfile(profile), sys)
				model := make([]map[uint64]sim.Word, f.Shards())
				for i := range model {
					model[i] = f.ShardState(i)
				}
				rng := uint64(54321)
				next := func(n int) int {
					rng = rng*6364136223846793005 + 1442695040888963407
					return int((rng >> 33) % uint64(n))
				}
				at := int64(0)
				for trial := 0; trial < 60; trial++ {
					ops := make([]Op, 1+next(4))
					for j := range ops {
						ops[j] = Op{Kind: OpKind(next(3)), Key: uint64(next(128)), Val: sim.Word(1000 + trial)}
					}
					failAfter := -1
					if next(4) == 0 {
						failAfter = next(len(ops) + 1)
					}
					out := f.RunTxn(at, ops, failAfter)
					at = out.Completed
					if out.Committed != (failAfter < 0) {
						t.Fatalf("%s/%s/%s trial %d: committed=%v with failAfter=%d", sysName, routerName, profile, trial, out.Committed, failAfter)
					}
					if out.Committed {
						for _, op := range ops {
							st := model[router.Shard(op.Key)]
							switch _, present := st[op.Key]; {
							case op.Kind == Insert && !present:
								st[op.Key] = op.Val
							case op.Kind == Delete:
								delete(st, op.Key)
							}
						}
					}
					for i := range model {
						if got := f.ShardState(i); !maps.Equal(got, model[i]) {
							t.Fatalf("%s/%s/%s trial %d: shard %d after ops %v (failAfter=%d) holds %v, model %v",
								sysName, routerName, profile, trial, i, ops, failAfter, got, model[i])
						}
						if owners := f.LockOwners(i); len(owners) != 0 {
							t.Fatalf("%s/%s/%s trial %d: shard %d holds owners %v", sysName, routerName, profile, trial, i, owners)
						}
					}
				}
			}
		}
	}
}
