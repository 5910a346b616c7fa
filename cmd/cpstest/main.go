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
	saveRestore(*iters)
	divide(*iters)
	traps(*iters)
	loadUnmapped(*iters)
	storeUnmapped(*iters)
	itlbMiss(*iters)
	exogenous(*iters)
	eviction(*iters)
	cacheSet(*iters)
	overflow(*iters)
	coherence(*iters)
	idleLoopCOH()
}

func newMachine(strands int) *sim.Machine {
	cfg := sim.DefaultConfig(strands)
	cfg.MemWords = 1 << 22
	cfg.MaxCycles = 1 << 44
	return sim.New(cfg)
}

func report(name string, h *cps.Histogram, comment string) {
	fmt.Printf("%-14s %s\n", name, h)
	if comment != "" {
		fmt.Printf("               (%s)\n", comment)
	}
	fmt.Println()
}

func saveRestore(iters int) {
	m := newMachine(1)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			if ok, c := rock.Try(s, func(t rock.Txn) { t.Call() }); !ok {
				h.Add(c)
			}
		}
	})
	report("save-restore", h, "function calls fail transactions: CPS=INST")
}

func divide(iters int) {
	m := newMachine(1)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			if ok, c := rock.Try(s, func(t rock.Txn) { t.Div() }); !ok {
				h.Add(c)
			}
		}
	})
	report("divide", h, "divide instructions are unsupported: CPS=FP")
}

func traps(iters int) {
	m := newMachine(1)
	h := cps.NewHistogram()
	taken := 0
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			ok, c := rock.Try(s, func(t rock.Txn) { t.Trap(i%2 == 0) })
			if !ok {
				h.Add(c)
			} else {
				taken++
			}
		}
	})
	report("cond-trap", h, fmt.Sprintf("taken traps abort with TCC; %d untaken traps committed", taken))
}

func loadUnmapped(iters int) {
	m := newMachine(1)
	a := m.Mem().Alloc(sim.PageWords, sim.PageWords)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			m.Mem().Remap(a, sim.PageWords)
			if ok, c := rock.Try(s, func(t rock.Txn) { t.Load(a) }); !ok {
				h.Add(c)
			}
		}
	})
	report("dtlb-load", h, "load with no TLB mapping: CPS=LD|PREC")
}

func storeUnmapped(iters int) {
	m := newMachine(1)
	a := m.Mem().Alloc(sim.PageWords, sim.PageWords)
	h := cps.NewHistogram()
	warmed := cps.NewHistogram()
	committedAfterWarm := 0
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			m.Mem().Remap(a, sim.PageWords)
			if ok, c := rock.Try(s, func(t rock.Txn) { t.Store(a, 1) }); !ok {
				h.Add(c)
			}
			// Retry after the dummy-CAS TLB warmup.
			rock.WarmTLB(s, a, 1)
			if ok, c := rock.Try(s, func(t rock.Txn) { t.Store(a, 1) }); !ok {
				warmed.Add(c)
			} else {
				committedAfterWarm++
			}
		}
	})
	report("dtlb-store", h, "store with no TLB mapping: CPS=ST, persistent until software warmup")
	report("dtlb-store+warm", warmed,
		fmt.Sprintf("after dummy-CAS warmup %d/%d committed", committedAfterWarm, iters))
}

// itlbMiss reproduces the Section 3 ITLB test: code is copied to freshly
// mmaped memory and executed inside a transaction; with no ITLB mapping
// present the transaction fails with CPS=PREC, and executing the code once
// outside a transaction (warming the ITLB) fixes it.
func itlbMiss(iters int) {
	m := newMachine(1)
	code := m.Mem().Alloc(sim.PageWords, sim.PageWords)
	page := sim.PageOf(code)
	h := cps.NewHistogram()
	warmCommits := 0
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			m.Mem().Remap(code, sim.PageWords)
			s.CAS(code, 0, 0) // data mapping back, but the ITLB stays cold
			if ok, c := rock.Try(s, func(t rock.Txn) { t.Exec(page) }); !ok {
				h.Add(c)
			}
			s.Exec(page) // warm the ITLB outside the transaction
			if ok, _ := rock.Try(s, func(t rock.Txn) { t.Exec(page) }); ok {
				warmCommits++
			}
		}
	})
	report("itlb", h, fmt.Sprintf(
		"executing freshly mmaped code in a transaction: CPS=PREC; %d/%d commit after ITLB warmup", warmCommits, iters))
}

// exogenous demonstrates the EXOG smattering every Section 3 test shows:
// with intervening code occasionally running between the abort and the CPS
// read (a context switch), the register reads back EXOG instead of the
// real reason.
func exogenous(iters int) {
	cfg := sim.DefaultConfig(1)
	cfg.MemWords = 1 << 20
	cfg.MaxCycles = 1 << 44
	cfg.ExogProb = 0.05
	m := sim.New(cfg)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			if ok, c := rock.Try(s, func(t rock.Txn) { t.Div() }); !ok {
				h.Add(c)
			}
		}
	})
	report("exogenous", h, "a divide test under context-switch pressure: mostly FP, with the usual smattering of EXOG")
}

func eviction(iters int) {
	m := newMachine(1)
	lines := sim.L1Sets*sim.L1Ways + 64
	a := m.Mem().AllocLines(lines * sim.WordsPerLine)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			if ok, c := rock.Try(s, func(t rock.Txn) {
				for j := 0; j < lines; j++ {
					t.Load(a + sim.Addr(j*sim.WordsPerLine))
				}
			}); !ok {
				h.Add(c)
			}
		}
	})
	report("eviction", h, "line-stride loads past L1 capacity: LD (marked line displaced) and SIZ (deferred queue)")
}

func cacheSet(iters int) {
	m := newMachine(1)
	stride := sim.L1Sets * sim.WordsPerLine
	a := m.Mem().Alloc(stride*6, stride)
	h := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		for i := 0; i < iters; i++ {
			if ok, c := rock.Try(s, func(t rock.Txn) {
				for j := 0; j < 5; j++ {
					t.Load(a + sim.Addr(j*stride))
				}
			}); !ok {
				h.Add(c)
			}
		}
	})
	report("cache-set", h, "five loads into one 4-way L1 set: CPS=LD")
}

func overflow(iters int) {
	m := newMachine(1)
	a := m.Mem().AllocLines(64 * sim.WordsPerLine)
	cold := cps.NewHistogram()
	warm := cps.NewHistogram()
	m.Run(func(s *sim.Strand) {
		body := func(t rock.Txn) {
			for j := 0; j < 33; j++ {
				t.Store(a+sim.Addr(j*sim.WordsPerLine), 1)
			}
		}
		for i := 0; i < iters; i++ {
			m.Mem().Remap(a, 64*sim.WordsPerLine)
			if ok, c := rock.Try(s, body); !ok {
				cold.Add(c)
			}
			rock.WarmTLB(s, a, 64*sim.WordsPerLine)
			if ok, c := rock.Try(s, body); !ok {
				warm.Add(c)
			}
		}
	})
	report("overflow-cold", cold, "33 stores, no TLB mappings: CPS=ST")
	report("overflow-warm", warm, "33 stores after warmup: bank overflow, CPS=ST|SIZ")
}

func coherence(iters int) {
	for _, threads := range []int{1, 4, 16} {
		m := newMachine(threads)
		a := m.Mem().AllocLines(16 * sim.WordsPerLine)
		h := cps.NewHistogram()
		commits := 0
		m.Run(func(s *sim.Strand) {
			for i := 0; i < iters; i++ {
				ok, c := rock.Try(s, func(t rock.Txn) {
					for j := 0; j < 16; j++ {
						t.Store(a+sim.Addr(j*sim.WordsPerLine), sim.Word(s.ID()))
					}
				})
				if ok {
					commits++
				} else {
					h.Add(c)
					// No backoff, as in the paper's test.
				}
			}
		})
		rate := float64(commits) / float64(threads*iters) * 100
		report(fmt.Sprintf("coherence x%d", threads), h,
			fmt.Sprintf("16 stores to shared lines, no backoff: %.1f%% success; conflicts report COH", rate))
	}
}

func idleLoopCOH() {
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
			for i := 0; i < 1200; i++ {
				if ok, c := rock.Try(s, func(t rock.Txn) {
					for j := 0; j < 3; j++ {
						t.Load(a + sim.Addr(j*stride))
					}
					t.Advance(800) // dwell, exposing the window
				}); !ok {
					h.Add(c)
				}
			}
		} else {
			// The "idle loop": streams through a large buffer, evicting L2
			// lines.
			for i := 0; i < 1<<17; i++ {
				s.Load(sweep + sim.Addr((i*sim.WordsPerLine)%sweepWords))
			}
		}
	})
	report("idle-loop", h, "read-only transactions doomed by L2 displacement from a sibling strand: COH")
}
