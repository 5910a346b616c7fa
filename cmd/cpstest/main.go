// Command cpstest reproduces the Section 3 experiments: directed tests
// that confirm when transactions abort and what feedback the CPS register
// gives. Each scenario prints the distribution of observed CPS values,
// which can be compared with the paper's descriptions (Table 1 and the
// bullet list in Section 3).
package main

import (
	"flag"
	"fmt"
	"os"

	"rocktm/internal/cps"
	"rocktm/internal/rock"
	"rocktm/internal/sim"
)

// registerFlags declares the flag surface on fs and returns -iters.
// Registration happens on an explicit FlagSet so tests can drive validate
// without a real command line.
func registerFlags(fs *flag.FlagSet) *int {
	return fs.Int("iters", 200, "attempts per scenario")
}

// validate rejects an -iters value that would print empty tables.
func validate(iters int) error {
	if iters <= 0 {
		return fmt.Errorf("-iters must be positive, got %d", iters)
	}
	return nil
}

func main() {
	iters := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := validate(*iters); err != nil {
		fmt.Fprintln(os.Stderr, "cpstest:", err)
		os.Exit(2)
	}

	fmt.Println("cpstest: CPS register behaviour on the simulated Rock (R2 semantics)")
	fmt.Println()
	for _, r := range scenarios(*iters) {
		fmt.Printf("%-14s %s\n", r.name, r.hist)
		if r.comment != "" {
			fmt.Printf("               (%s)\n", r.comment)
		}
		fmt.Println()
	}
}

// row is one scenario's result: the distribution of the CPS values its
// aborted attempts read back, and what the paper says of it.
type row struct {
	name    string
	hist    *cps.Histogram
	comment string
}

// scenarios runs every Section 3 scenario, iters attempts each, and
// returns their rows in report order.
func scenarios(iters int) []row {
	var rows []row
	for _, run := range []func(iters int) []row{
		saveRestore, divide, traps, loadUnmapped, storeUnmapped, itlbMiss,
		exogenous, eviction, cacheSet, overflow, coherence, idleLoopCOH,
	} {
		rows = append(rows, run(iters)...)
	}
	return rows
}

func newMachine(strands int) *sim.Machine {
	cfg := sim.DefaultConfig(strands)
	cfg.MemWords = 1 << 22
	cfg.MaxCycles = 1 << 44
	return sim.New(cfg)
}

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

func saveRestore(iters int) []row {
	h := cps.NewHistogram()
	newMachine(1).Run(func(s *sim.Strand) { tries(s, iters, h, func(t rock.Txn) { t.Call() }) })
	return []row{{"save-restore", h, "function calls fail transactions: CPS=INST"}}
}

func divide(iters int) []row {
	h := cps.NewHistogram()
	newMachine(1).Run(func(s *sim.Strand) { tries(s, iters, h, func(t rock.Txn) { t.Div() }) })
	return []row{{"divide", h, "divide instructions are unsupported: CPS=FP"}}
}

func traps(iters int) []row {
	h := cps.NewHistogram()
	untaken := 0
	newMachine(1).Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			untaken += tries(s, 1, h, func(t rock.Txn) { t.Trap(i%2 == 0) })
		}
	})
	return []row{{"cond-trap", h, fmt.Sprintf("taken traps abort with TCC; %d untaken traps committed", untaken)}}
}

func loadUnmapped(iters int) []row {
	m := newMachine(1)
	a := m.Mem().Alloc(sim.PageWords, sim.PageWords)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			m.Mem().Remap(a, sim.PageWords)
			tries(s, 1, h, func(t rock.Txn) { t.Load(a) })
		}
	})
	return []row{{"dtlb-load", h, "load with no TLB mapping: CPS=LD|PREC"}}
}

func storeUnmapped(iters int) []row {
	m := newMachine(1)
	a := m.Mem().Alloc(sim.PageWords, sim.PageWords)
	h := cps.NewHistogram()
	warmed := cps.NewHistogram()
	committedAfterWarm := 0
	store := func(t rock.Txn) { t.Store(a, 1) }
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			m.Mem().Remap(a, sim.PageWords)
			tries(s, 1, h, store)
			// Retry after the dummy-CAS TLB warmup.
			rock.WarmTLB(s, a, 1)
			committedAfterWarm += tries(s, 1, warmed, store)
		}
	})
	return []row{
		{"dtlb-store", h, "store with no TLB mapping: CPS=ST, persistent until software warmup"},
		{"dtlb-store+warm", warmed, fmt.Sprintf("after dummy-CAS warmup %d/%d committed", committedAfterWarm, iters)},
	}
}

// itlbMiss reproduces the Section 3 ITLB test: code is copied to freshly
// mmaped memory and executed inside a transaction; with no ITLB mapping
// present the transaction fails with CPS=PREC, and executing the code once
// outside a transaction (warming the ITLB) fixes it.
func itlbMiss(iters int) []row {
	m := newMachine(1)
	code := m.Mem().Alloc(sim.PageWords, sim.PageWords)
	page := sim.PageOf(code)
	h := cps.NewHistogram()
	warmCommits := 0
	exec := func(t rock.Txn) { t.Exec(page) }
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			m.Mem().Remap(code, sim.PageWords)
			s.CAS(code, 0, 0) // data mapping back, but the ITLB stays cold
			tries(s, 1, h, exec)
			s.Exec(page) // warm the ITLB outside the transaction
			if ok, _ := rock.Try(s, exec); ok {
				warmCommits++
			}
		}
	})
	return []row{{"itlb", h, fmt.Sprintf(
		"executing freshly mmaped code in a transaction: CPS=PREC; %d/%d commit after ITLB warmup", warmCommits, iters)}}
}

// exogenous demonstrates the EXOG smattering every Section 3 test shows:
// with intervening code occasionally running between the abort and the CPS
// read (a context switch), the register reads back EXOG instead of the
// real reason.
func exogenous(iters int) []row {
	cfg := sim.DefaultConfig(1)
	cfg.MemWords = 1 << 20
	cfg.MaxCycles = 1 << 44
	cfg.ExogProb = 0.05
	h := cps.NewHistogram()
	sim.New(cfg).Run(func(s *sim.Strand) { tries(s, iters, h, func(t rock.Txn) { t.Div() }) })
	return []row{{"exogenous", h, "a divide test under context-switch pressure: mostly FP, with the usual smattering of EXOG"}}
}

func eviction(iters int) []row {
	m := newMachine(1)
	lines := sim.L1Sets*sim.L1Ways + 64
	a := m.Mem().AllocLines(lines * sim.WordsPerLine)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		tries(s, iters, h, func(t rock.Txn) {
			for j := 0; j < lines; j++ {
				t.Load(a + sim.Addr(j*sim.WordsPerLine))
			}
		})
	})
	return []row{{"eviction", h, "line-stride loads past L1 capacity: LD (marked line displaced) and SIZ (deferred queue)"}}
}

func cacheSet(iters int) []row {
	m := newMachine(1)
	stride := sim.L1Sets * sim.WordsPerLine
	a := m.Mem().Alloc(stride*6, stride)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		tries(s, iters, h, func(t rock.Txn) {
			for j := 0; j < 5; j++ {
				t.Load(a + sim.Addr(j*stride))
			}
		})
	})
	return []row{{"cache-set", h, "five loads into one 4-way L1 set: CPS=LD"}}
}

func overflow(iters int) []row {
	m := newMachine(1)
	a := m.Mem().AllocLines(64 * sim.WordsPerLine)
	cold := cps.NewHistogram()
	warm := cps.NewHistogram()
	body := func(t rock.Txn) {
		for j := 0; j < 33; j++ {
			t.Store(a+sim.Addr(j*sim.WordsPerLine), 1)
		}
	}
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			m.Mem().Remap(a, 64*sim.WordsPerLine)
			tries(s, 1, cold, body)
			rock.WarmTLB(s, a, 64*sim.WordsPerLine)
			tries(s, 1, warm, body)
		}
	})
	return []row{
		{"overflow-cold", cold, "33 stores, no TLB mappings: CPS=ST"},
		{"overflow-warm", warm, "33 stores after warmup: bank overflow, CPS=ST|SIZ"},
	}
}

func coherence(iters int) []row {
	var rows []row
	for _, threads := range []int{1, 4, 16} {
		m := newMachine(threads)
		a := m.Mem().AllocLines(16 * sim.WordsPerLine)
		h := cps.NewHistogram()
		commits := 0
		m.Run(func(s *sim.Strand) {
			// No backoff between attempts, as in the paper's test.
			commits += tries(s, iters, h, func(t rock.Txn) {
				for j := 0; j < 16; j++ {
					t.Store(a+sim.Addr(j*sim.WordsPerLine), sim.Word(s.ID()))
				}
			})
		})
		rate := float64(commits) / float64(threads*iters) * 100
		rows = append(rows, row{fmt.Sprintf("coherence x%d", threads), h,
			fmt.Sprintf("16 stores to shared lines, no backoff: %.1f%% success; conflicts report COH", rate)})
	}
	return rows
}

// idleLoopCOH makes a fixed 1200 attempts, whatever -iters says.
func idleLoopCOH(int) []row {
	// The paper's surprise: a single-threaded read-only test occasionally
	// fails with COH because another strand (the OS idle loop) displaces
	// L2 lines, back-invalidating transactionally marked L1 lines. Strand
	// 1 below plays the idle loop, sweeping memory.
	mcfg := sim.DefaultConfig(2)
	mcfg.MemWords = 1 << 22
	mcfg.MaxCycles = 1 << 44
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
	return []row{{"idle-loop", h, "read-only transactions doomed by L2 displacement from a sibling strand: COH"}}
}
