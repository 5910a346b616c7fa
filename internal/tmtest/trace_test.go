package tmtest

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/cps"
	"rocktm/internal/obs"
	"rocktm/internal/obs/timeseries"
	"rocktm/internal/policy"
	"rocktm/internal/sim"
)

// runTracedTransfers executes a deterministic transfer workload under sys
// and returns the machine for inspection. When trace is true a tracer is
// attached before the run.
func runTracedTransfers(f sysFactory, seed uint64, trace bool) (*sim.Machine, *obs.Tracer) {
	const (
		accounts = 16
		perOps   = 200
		threads  = 4
	)
	m := testMachine(threads, seed)
	sys := f.build(m)
	var tr *obs.Tracer
	if trace {
		tr = m.StartTrace()
	}
	base := m.Mem().AllocLines(accounts)
	for i := 0; i < accounts; i++ {
		m.Mem().Poke(base+sim.Addr(i), 1000)
	}
	m.Run(func(s *sim.Strand) {
		for op := 0; op < perOps; op++ {
			from := s.RandIntn(accounts)
			to := s.RandIntn(accounts)
			amt := sim.Word(1 + s.RandIntn(10))
			sys.Atomic(s, func(c core.Ctx) {
				fv := c.Load(base + sim.Addr(from))
				tv := c.Load(base + sim.Addr(to))
				c.Branch(pcTransfer, fv >= amt, true)
				if fv < amt || from == to {
					return
				}
				c.Store(base+sim.Addr(from), fv-amt)
				c.Store(base+sim.Addr(to), tv+amt)
			})
		}
	})
	return m, tr
}

// TestTracingPreservesVirtualTime is the observer-effect obligation: a
// traced run must be cycle-for-cycle identical to an untraced one.
// Recording consumes no simulated cycles and no simulated randomness, so
// MaxClock must not move when tracing is switched on.
func TestTracingPreservesVirtualTime(t *testing.T) {
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			plain, _ := runTracedTransfers(f, 99, false)
			traced, tr := runTracedTransfers(f, 99, true)
			if plain.MaxClock() != traced.MaxClock() {
				t.Errorf("tracing perturbed virtual time: untraced MaxClock=%d, traced=%d",
					plain.MaxClock(), traced.MaxClock())
			}
			if len(tr.Merged()) == 0 {
				t.Errorf("traced run recorded no events")
			}
		})
	}
}

// TestTraceStreamDeterministic asserts that two runs with the same seed
// produce byte-identical merged trace streams (rendered as the plain-text
// timeline, which includes cycle, strand, kind and detail of every event).
func TestTraceStreamDeterministic(t *testing.T) {
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			_, tr1 := runTracedTransfers(f, 1234, true)
			_, tr2 := runTracedTransfers(f, 1234, true)
			var a, b bytes.Buffer
			if err := obs.WriteTimeline(&a, tr1.Merged()); err != nil {
				t.Fatal(err)
			}
			if err := obs.WriteTimeline(&b, tr2.Merged()); err != nil {
				t.Fatal(err)
			}
			if a.Len() == 0 {
				t.Fatal("empty trace stream")
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("same-seed runs produced different trace streams (%d vs %d bytes)", a.Len(), b.Len())
			}
		})
	}
}

// TestTelemetryChannelsAgree reconciles every channel that counts the
// same transactional facts: the simulator's per-strand counters, the
// system's Stats, the AbortProfile fold of the live event stream and the
// windowed timeseries recorder. They must agree exactly for every system
// under every fault profile and HTM design point. ExogProb stays at its
// default of 0: with it set, a system reads EXOG from the CPS register
// where the event carries the true reason.
func TestTelemetryChannelsAgree(t *testing.T) {
	const (
		threads = 4
		perOps  = 100
	)
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			for _, fault := range sim.FaultProfileNames() {
				for _, design := range sim.DesignPointNames() {
					t.Run(fault+"-"+design, func(t *testing.T) {
						cfg := sim.DefaultConfig(threads)
						cfg.MemWords = 1 << 21
						cfg.Seed = 5
						cfg.MaxCycles = 1 << 24
						cfg.Faults = sim.FaultProfile(fault)
						cfg.HTM = sim.DesignPoint(design)
						m := sim.New(cfg)
						sys := f.build(m)
						prof := obs.NewAbortProfile()
						m.AttachEventSink(prof)
						rec := timeseries.NewRecorder(timeseries.MinWidth)
						m.AttachEventSink(rec)
						ctr := m.Mem().AllocLines(sim.WordsPerLine)
						m.Run(func(s *sim.Strand) {
							for op := 0; op < perOps; op++ {
								sys.Atomic(s, func(c core.Ctx) {
									c.Store(ctr, c.Load(ctr)+1)
								})
							}
						})
						checkChannelsAgree(t, m, sys.Stats(), prof, rec.Series())
						if a, ok := sys.(adaptiveSystem); ok {
							checkAdaptiveAgrees(t, a.pol, prof)
						}
						if got := sys.Stats().Ops; got != threads*perOps {
							t.Errorf("Ops = %d, want %d", got, threads*perOps)
						}
					})
				}
			}
		})
	}
}

// checkChannelsAgree asserts the reconciliation invariants of one run.
func checkChannelsAgree(t *testing.T, m *sim.Machine, st *core.Stats, prof *obs.AbortProfile, series timeseries.Series) {
	t.Helper()
	var strand sim.Stats
	for i := 0; i < m.Config().Strands; i++ {
		s := m.Strand(i).Stats()
		strand.TxBegins += s.TxBegins
		strand.TxCommits += s.TxCommits
		strand.TxAborts += s.TxAborts
	}
	var win timeseries.WindowStats
	winBits := map[string]uint64{}
	for _, w := range series.Windows {
		win.Begins += w.Begins
		win.Commits += w.Commits
		win.Aborts += w.Aborts
		win.SWCommits += w.SWCommits
		win.SWAborts += w.SWAborts
		for name, n := range w.CPS {
			winBits[name] += n
		}
	}
	for _, c := range []struct {
		name                   string
		strand, fold, windowed uint64
	}{
		{"begins", strand.TxBegins, prof.Begins, win.Begins},
		{"commits", strand.TxCommits, prof.Commits, win.Commits},
		{"aborts", strand.TxAborts, prof.Aborts, win.Aborts},
	} {
		if c.strand != c.fold || c.fold != c.windowed {
			t.Errorf("%s: strands %d, fold %d, windows %d", c.name, c.strand, c.fold, c.windowed)
		}
	}
	if st.HWAttempts != prof.Begins || st.HWCommits != prof.Commits {
		t.Errorf("system HWAttempts/HWCommits = %d/%d, fold begins/commits = %d/%d",
			st.HWAttempts, st.HWCommits, prof.Begins, prof.Commits)
	}
	if !slices.Equal(st.CPSHist.Entries(), prof.Hist.Entries()) {
		t.Errorf("system CPS histogram %v, fold %v", st.CPSHist.Entries(), prof.Hist.Entries())
	}
	if st.SWCommits != win.SWCommits || st.SWAborts != win.SWAborts {
		t.Errorf("system SWCommits/SWAborts = %d/%d, windows = %d/%d",
			st.SWCommits, st.SWAborts, win.SWCommits, win.SWAborts)
	}
	for _, bit := range cps.All {
		if got, want := winBits[cps.Name(bit)], prof.Hist.BitCount(bit); got != want {
			t.Errorf("CPS bit %s: windows %d, fold %d", cps.Name(bit), got, want)
		}
	}
}

// checkAdaptiveAgrees reconciles the adaptive policy's learned histogram
// with the abort fold: the policy records every failure it decides except
// the exact-TCC one, the system's own abort.
func checkAdaptiveAgrees(t *testing.T, pol *policy.Adaptive, prof *obs.AbortProfile) {
	t.Helper()
	want := map[cps.Bits]uint64{}
	for _, e := range prof.Hist.Entries() {
		if e.Value != cps.TCC {
			want[e.Value] = e.Count
		}
	}
	got := map[cps.Bits]uint64{}
	for _, e := range pol.Histogram().Entries() {
		got[e.Value] = e.Count
	}
	if !maps.Equal(got, want) {
		t.Errorf("adaptive histogram %v, fold without exact TCC %v", got, want)
	}
}
