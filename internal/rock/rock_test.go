package rock

import (
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/cps"
	"rocktm/internal/sim"
)

func newMachine() *sim.Machine {
	cfg := sim.DefaultConfig(1)
	cfg.MemWords = 1 << 18
	cfg.MaxCycles = 1 << 42
	return sim.New(cfg)
}

func TestTryCommitsAndAborts(t *testing.T) {
	m := newMachine()
	a := m.Mem().AllocLines(8)
	m.Run(func(s *sim.Strand) {
		s.Store(a, 1)
		ok, c := Try(s, func(tx Txn) {
			tx.Store(a, tx.Load(a)+1)
		})
		if !ok || c != 0 {
			t.Fatalf("simple txn failed: %v", c)
		}
		ok, c = Try(s, func(tx Txn) {
			tx.Store(a, 99)
			tx.Abort()
		})
		if ok || c != cps.TCC {
			t.Fatalf("explicit abort = (%v,%v), want (false,TCC)", ok, c)
		}
	})
	if got := m.Mem().Peek(a); got != 2 {
		t.Fatalf("value = %d, want 2 (aborted store must not land)", got)
	}
}

func TestUnwindingStopsAtTry(t *testing.T) {
	m := newMachine()
	m.Run(func(s *sim.Strand) {
		reached := false
		ok, c := Try(s, func(tx Txn) {
			tx.Call() // INST abort: unwinds here
			reached = true
		})
		if ok || reached {
			t.Error("body continued past an aborting instruction")
		}
		if c != cps.INST {
			t.Errorf("CPS = %v, want INST", c)
		}
	})
}

func TestForeignPanicsPropagate(t *testing.T) {
	m := newMachine()
	m.Run(func(s *sim.Strand) {
		defer func() {
			if r := recover(); r == nil {
				t.Error("foreign panic was swallowed by Try")
			}
		}()
		Try(s, func(tx Txn) {
			panic("user bug")
		})
	})
}

func TestWarmTLBMakesStoresCommit(t *testing.T) {
	m := newMachine()
	a := m.Mem().Alloc(sim.PageWords*3, sim.PageWords)
	m.Run(func(s *sim.Strand) {
		m.Mem().Remap(a, sim.PageWords*3)
		ok, c := Try(s, func(tx Txn) { tx.Store(a+sim.PageWords, 5) })
		if ok {
			t.Fatal("store to unmapped page committed")
		}
		if c != cps.ST {
			t.Fatalf("CPS = %v, want ST", c)
		}
		WarmTLB(s, a, sim.PageWords*3)
		ok, c = Try(s, func(tx Txn) { tx.Store(a+sim.PageWords, 5) })
		if !ok {
			t.Fatalf("post-warmup store failed: %v", c)
		}
	})
	if m.Mem().Peek(a+sim.PageWords) != 5 {
		t.Fatal("warmed store did not land")
	}
}

func TestCtxAdapterRoutesEverything(t *testing.T) {
	m := newMachine()
	a := m.Mem().AllocLines(8)
	pc := uint32(77)
	m.Run(func(s *sim.Strand) {
		s.Store(a, 3)
		// A transaction exercising every Ctx operation that can commit.
		ok, c := Try(s, func(tx Txn) {
			var cx core.Ctx = tx
			if cx.Strand() != s {
				t.Error("Strand() mismatch")
			}
			v := cx.Load(a)
			cx.Branch(pc, v == 3, true)
			cx.Store(a, v+1)
		})
		if !ok {
			t.Fatalf("ctx txn failed: %v", c)
		}
		// Each aborting instruction through the Ctx interface.
		if ok, c := Try(s, func(tx Txn) { core.Ctx(tx).Div() }); ok || c != cps.FP {
			t.Errorf("Div: (%v,%v)", ok, c)
		}
		if ok, c := Try(s, func(tx Txn) { core.Ctx(tx).Call() }); ok || c != cps.INST {
			t.Errorf("Call: (%v,%v)", ok, c)
		}
		if ok, c := Try(s, func(tx Txn) { tx.Trap(true) }); ok || c != cps.TCC {
			t.Errorf("Trap: (%v,%v)", ok, c)
		}
	})
	if m.Mem().Peek(a) != 4 {
		t.Fatal("committed ctx store missing")
	}
}

func TestTxnExecITLB(t *testing.T) {
	m := newMachine()
	code := m.Mem().Alloc(sim.PageWords, sim.PageWords)
	page := sim.PageOf(code)
	m.Run(func(s *sim.Strand) {
		m.Mem().Remap(code, sim.PageWords)
		s.CAS(code, 0, 0)
		if ok, c := Try(s, func(tx Txn) { tx.Exec(page) }); ok || c != cps.PREC {
			t.Fatalf("cold ITLB exec = (%v,%v), want (false,PREC)", ok, c)
		}
		s.Exec(page)
		if ok, c := Try(s, func(tx Txn) { tx.Exec(page) }); !ok {
			t.Fatalf("warm ITLB exec failed: %v", c)
		}
	})
}

func TestStackWriteAndAdvanceInsideTxn(t *testing.T) {
	m := newMachine()
	m.Run(func(s *sim.Strand) {
		ok, _ := Try(s, func(tx Txn) {
			tx.Strand().TxStackWrite()
			tx.Advance(25)
		})
		if !ok {
			t.Fatal("stack write / advance aborted the transaction")
		}
	})
}
