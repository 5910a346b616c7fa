package bench

import (
	"fmt"
	"io"

	"rocktm/internal/cps"
	"rocktm/internal/rock"
	"rocktm/internal/sim"
)

// CPSTable is Section 3's directed tests (Table 1 and the bullet list
// beside it): transactions built to abort for one reason each, and the
// distribution of CPS values the register reads back after each abort.
type CPSTable struct {
	Rows []CPSRow
}

// CPSRow is one scenario's result: the distribution of the CPS values its
// aborted attempts read back, and what the paper says of it.
type CPSRow struct {
	Name    string
	Hist    *cps.Histogram
	Comment string
}

// Table1 runs every Section 3 scenario on Rock's design, o.OpsPerThread
// attempts each, on machines seeded with o.Seed. The coherence rows run
// at 1, 4 and 16 strands and the idle-loop row makes 1,200 attempts,
// whatever o.Threads and o.OpsPerThread say.
func Table1(o Options) (*CPSTable, error) {
	o = o.Defaults()
	return &CPSTable{Rows: cpsScenarios(sim.DesignPoint("rock"), o.OpsPerThread, o.Seed)}, nil
}

// Render writes a header line, then each row's name and histogram, its
// comment and a blank line.
func (t *CPSTable) Render(w io.Writer) {
	fmt.Fprintln(w, "== Table 1: CPS register behaviour on the simulated Rock (R2 semantics) ==")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-14s %s\n", r.Name, r.Hist)
		if r.Comment != "" {
			fmt.Fprintf(w, "               (%s)\n", r.Comment)
		}
		fmt.Fprintln(w)
	}
}

// CSV writes nothing: the table has no machine-readable form.
func (t *CPSTable) CSV(io.Writer) {}

// JSON writes nothing: the table has no machine-readable form.
func (t *CPSTable) JSON(io.Writer) error { return nil }

// cpsTest is what every scenario's machines share: the HTM design they
// implement, their seed and the attempts per scenario.
type cpsTest struct {
	design sim.HTMDesign
	seed   uint64
	iters  int
}

// cpsScenarios runs every Section 3 scenario on machines of the given
// design, iters attempts each, and returns their rows in report order.
func cpsScenarios(design sim.HTMDesign, iters int, seed uint64) []CPSRow {
	c := cpsTest{design: design, seed: seed, iters: iters}
	var rows []CPSRow
	for _, run := range []func() []CPSRow{
		c.saveRestore, c.divide, c.traps, c.loadUnmapped, c.storeUnmapped, c.itlbMiss,
		c.exogenous, c.eviction, c.cacheSet, c.overflow, c.coherence, c.idleLoopCOH,
	} {
		rows = append(rows, run()...)
	}
	return rows
}

// config is a scenario machine's configuration with the given strands.
func (c cpsTest) config(strands int) sim.Config {
	cfg := sim.DefaultConfig(strands)
	cfg.Seed = c.seed
	cfg.HTM = c.design
	cfg.MaxCycles = 1 << 44
	return cfg
}

func (c cpsTest) newMachine(strands int) *sim.Machine { return sim.New(c.config(strands)) }

// tries makes n hardware attempts of body on s, adding the CPS value of
// each attempt that aborts to h, and returns how many committed.
func tries(s *sim.Strand, n int, h *cps.Histogram, body func(t rock.Txn)) int {
	commits := 0
	for i := 0; i < n; i++ {
		if ok, c := rock.Try(s, body); ok {
			commits++
		} else {
			h.Add(c)
		}
	}
	return commits
}

func (c cpsTest) saveRestore() []CPSRow {
	h := cps.NewHistogram()
	c.newMachine(1).Run(func(s *sim.Strand) { tries(s, c.iters, h, func(t rock.Txn) { t.Call() }) })
	return []CPSRow{{"save-restore", h, "function calls fail transactions: CPS=INST"}}
}

func (c cpsTest) divide() []CPSRow {
	h := cps.NewHistogram()
	c.newMachine(1).Run(func(s *sim.Strand) { tries(s, c.iters, h, func(t rock.Txn) { t.Div() }) })
	return []CPSRow{{"divide", h, "divide instructions are unsupported: CPS=FP"}}
}

func (c cpsTest) traps() []CPSRow {
	h := cps.NewHistogram()
	untaken := 0
	c.newMachine(1).Run(func(s *sim.Strand) {
		for i := 0; i < c.iters; i++ {
			untaken += tries(s, 1, h, func(t rock.Txn) { t.Trap(i%2 == 0) })
		}
	})
	return []CPSRow{{"cond-trap", h, fmt.Sprintf("taken traps abort with TCC; %d untaken traps committed", untaken)}}
}

func (c cpsTest) loadUnmapped() []CPSRow {
	m := c.newMachine(1)
	a := m.Mem().Alloc(sim.PageWords, sim.PageWords)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		for i := 0; i < c.iters; i++ {
			m.Mem().Remap(a, sim.PageWords)
			tries(s, 1, h, func(t rock.Txn) { t.Load(a) })
		}
	})
	return []CPSRow{{"dtlb-load", h, "load with no TLB mapping: CPS=LD|PREC"}}
}

func (c cpsTest) storeUnmapped() []CPSRow {
	m := c.newMachine(1)
	a := m.Mem().Alloc(sim.PageWords, sim.PageWords)
	h := cps.NewHistogram()
	warmed := cps.NewHistogram()
	committedAfterWarm := 0
	store := func(t rock.Txn) { t.Store(a, 1) }
	m.Run(func(s *sim.Strand) {
		for i := 0; i < c.iters; i++ {
			m.Mem().Remap(a, sim.PageWords)
			tries(s, 1, h, store)
			// Retry after the dummy-CAS TLB warmup.
			rock.WarmTLB(s, a, 1)
			committedAfterWarm += tries(s, 1, warmed, store)
		}
	})
	return []CPSRow{
		{"dtlb-store", h, "store with no TLB mapping: CPS=ST, persistent until software warmup"},
		{"dtlb-store+warm", warmed, fmt.Sprintf("after dummy-CAS warmup %d/%d committed", committedAfterWarm, c.iters)},
	}
}

// itlbMiss reproduces the Section 3 ITLB test: code is copied to freshly
// mmaped memory and executed inside a transaction; with no ITLB mapping
// present the transaction fails with CPS=PREC, and executing the code once
// outside a transaction (warming the ITLB) fixes it.
func (c cpsTest) itlbMiss() []CPSRow {
	m := c.newMachine(1)
	code := m.Mem().Alloc(sim.PageWords, sim.PageWords)
	page := sim.PageOf(code)
	h := cps.NewHistogram()
	warmCommits := 0
	exec := func(t rock.Txn) { t.Exec(page) }
	m.Run(func(s *sim.Strand) {
		for i := 0; i < c.iters; i++ {
			m.Mem().Remap(code, sim.PageWords)
			s.CAS(code, 0, 0) // data mapping back, but the ITLB stays cold
			tries(s, 1, h, exec)
			s.Exec(page) // warm the ITLB outside the transaction
			if ok, _ := rock.Try(s, exec); ok {
				warmCommits++
			}
		}
	})
	return []CPSRow{{"itlb", h, fmt.Sprintf(
		"executing freshly mmaped code in a transaction: CPS=PREC; %d/%d commit after ITLB warmup", warmCommits, c.iters)}}
}

// exogenous demonstrates the EXOG smattering every Section 3 test shows:
// with intervening code occasionally running between the abort and the CPS
// read (a context switch), the register reads back EXOG instead of the
// real reason.
func (c cpsTest) exogenous() []CPSRow {
	cfg := c.config(1)
	cfg.MemWords = 1 << 20
	cfg.ExogProb = 0.05
	h := cps.NewHistogram()
	sim.New(cfg).Run(func(s *sim.Strand) { tries(s, c.iters, h, func(t rock.Txn) { t.Div() }) })
	return []CPSRow{{"exogenous", h, "a divide test under context-switch pressure: mostly FP, with the usual smattering of EXOG"}}
}

func (c cpsTest) eviction() []CPSRow {
	m := c.newMachine(1)
	lines := sim.L1Sets*sim.L1Ways + 64
	a := m.Mem().AllocLines(lines * sim.WordsPerLine)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		tries(s, c.iters, h, func(t rock.Txn) {
			for j := 0; j < lines; j++ {
				t.Load(a + sim.Addr(j*sim.WordsPerLine))
			}
		})
	})
	return []CPSRow{{"eviction", h, "line-stride loads past L1 capacity: LD (marked line displaced) and SIZ (deferred queue)"}}
}

func (c cpsTest) cacheSet() []CPSRow {
	m := c.newMachine(1)
	stride := sim.L1Sets * sim.WordsPerLine
	a := m.Mem().Alloc(stride*6, stride)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		tries(s, c.iters, h, func(t rock.Txn) {
			for j := 0; j < 5; j++ {
				t.Load(a + sim.Addr(j*stride))
			}
		})
	})
	return []CPSRow{{"cache-set", h, "five loads into one 4-way L1 set: CPS=LD"}}
}

func (c cpsTest) overflow() []CPSRow {
	m := c.newMachine(1)
	a := m.Mem().AllocLines(64 * sim.WordsPerLine)
	cold := cps.NewHistogram()
	warm := cps.NewHistogram()
	body := func(t rock.Txn) {
		for j := 0; j < 33; j++ {
			t.Store(a+sim.Addr(j*sim.WordsPerLine), 1)
		}
	}
	m.Run(func(s *sim.Strand) {
		for i := 0; i < c.iters; i++ {
			m.Mem().Remap(a, 64*sim.WordsPerLine)
			tries(s, 1, cold, body)
			rock.WarmTLB(s, a, 64*sim.WordsPerLine)
			tries(s, 1, warm, body)
		}
	})
	return []CPSRow{
		{"overflow-cold", cold, "33 stores, no TLB mappings: CPS=ST"},
		{"overflow-warm", warm, "33 stores after warmup: bank overflow, CPS=ST|SIZ"},
	}
}

func (c cpsTest) coherence() []CPSRow {
	var rows []CPSRow
	for _, threads := range []int{1, 4, 16} {
		m := c.newMachine(threads)
		a := m.Mem().AllocLines(16 * sim.WordsPerLine)
		h := cps.NewHistogram()
		commits := 0
		m.Run(func(s *sim.Strand) {
			// No backoff between attempts, as in the paper's test.
			commits += tries(s, c.iters, h, func(t rock.Txn) {
				for j := 0; j < 16; j++ {
					t.Store(a+sim.Addr(j*sim.WordsPerLine), sim.Word(s.ID()))
				}
			})
		})
		rate := float64(commits) / float64(threads*c.iters) * 100
		rows = append(rows, CPSRow{fmt.Sprintf("coherence x%d", threads), h,
			fmt.Sprintf("16 stores to shared lines, no backoff: %.1f%% success; conflicts report COH", rate)})
	}
	return rows
}

// idleLoopCOH makes a fixed 1200 attempts, whatever c.iters says.
func (c cpsTest) idleLoopCOH() []CPSRow {
	// The paper's surprise: a single-threaded read-only test occasionally
	// fails with COH because another strand (the OS idle loop) displaces
	// L2 lines, back-invalidating transactionally marked L1 lines. Strand
	// 1 below plays the idle loop, sweeping memory.
	mcfg := c.config(2)
	// A small L2 concentrates the displacement pressure the way a long
	//-running idle loop does on the real chip.
	mcfg.L2Sets, mcfg.L2Ways = 256, 8
	m := sim.New(mcfg)
	stride := sim.L1Sets * sim.WordsPerLine
	a := m.Mem().Alloc(stride*4, stride)
	const sweepWords = 1 << 17
	sweep := m.Mem().AllocLines(sweepWords)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		if s.ID() == 0 {
			tries(s, 1200, h, func(t rock.Txn) {
				for j := 0; j < 3; j++ {
					t.Load(a + sim.Addr(j*stride))
				}
				t.Advance(800) // dwell, exposing the window
			})
		} else {
			// The "idle loop": streams through a large buffer, evicting L2
			// lines.
			for i := 0; i < 1<<17; i++ {
				s.Load(sweep + sim.Addr((i*sim.WordsPerLine)%sweepWords))
			}
		}
	})
	return []CPSRow{{"idle-loop", h, "read-only transactions doomed by L2 displacement from a sibling strand: COH"}}
}
