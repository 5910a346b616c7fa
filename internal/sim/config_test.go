package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestConfigDigest pins the properties the experiment runner's cache
// keys depend on: the digest is stable for equal configs and changes
// when any behaviour-relevant field changes — including the fault plan
// and the HTM design, which live in nested structs.
func TestConfigDigest(t *testing.T) {
	base := DefaultConfig(4)
	if base.Digest() != DefaultConfig(4).Digest() {
		t.Fatal("equal configs produced different digests")
	}
	mutations := map[string]func(*Config){
		"strands":  func(c *Config) { c.Strands = 8 },
		"memwords": func(c *Config) { c.MemWords = 1 << 23 },
		"mode":     func(c *Config) { c.Mode = SE },
		"seed":     func(c *Config) { c.Seed = 7 },
		"quantum":  func(c *Config) { c.Quantum = 8 },
		"l2sets":   func(c *Config) { c.L2Sets = 256 },
		"ucti":     func(c *Config) { c.UCTIAbortProb = 0.99 },
		"faults":   func(c *Config) { c.Faults.SqueezeStoreQueue = 4 },
		// The HTM design axes must key the cache: serving a Rock result
		// for an eager-VM config (or vice versa) would silently corrupt
		// every htmdesign sweep.
		"htm/vm":      func(c *Config) { c.HTM.VM = VMEager },
		"htm/detect":  func(c *Config) { c.HTM.Detect = DetectLazy },
		"htm/resolve": func(c *Config) { c.HTM.Resolve = ResCommitterWins },
		"htm/sticky":  func(c *Config) { c.HTM.StickyLines = 8 },
	}
	for name, mutate := range mutations {
		c := DefaultConfig(4)
		mutate(&c)
		if c.Digest() == base.Digest() {
			t.Errorf("changing %s did not change the config digest", name)
		}
	}
}

// TestConfigDigestMemo checks the memoized digest against a fresh
// fmt.Sprintf("%#v") digest, the form Digest has always hashed, over
// every design point × fault profile × strand count. Four goroutines
// take each digest twice, so the memo is read and filled concurrently
// (CI runs it under -race). A config holding a NaN is digested but never
// stored, and configs that compare equal share one digest.
func TestConfigDigestMemo(t *testing.T) {
	fresh := func(c Config) string {
		h := sha256.Sum256([]byte(fmt.Sprintf("%#v", c)))
		return hex.EncodeToString(h[:8])
	}
	var cfgs []Config
	for _, design := range DesignPointNames() {
		for _, faults := range FaultProfileNames() {
			for _, n := range []int{1, 2, 4, 16} {
				c := DefaultConfig(n)
				c.HTM = DesignPoint(design)
				c.Faults = FaultProfile(faults)
				cfgs = append(cfgs, c)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				for _, c := range cfgs {
					if got, want := c.Digest(), fresh(c); got != want {
						t.Errorf("Digest() = %s, want %s for %#v", got, want, c)
					}
				}
			}
		}()
	}
	wg.Wait()

	nan := DefaultConfig(4)
	nan.CTIAbortProb = math.NaN()
	for rep := 0; rep < 2; rep++ {
		if got, want := nan.Digest(), fresh(nan); got != want {
			t.Errorf("NaN config: Digest() = %s, want %s", got, want)
		}
	}
	digestMu.Lock()
	for c := range digests {
		if c != c {
			t.Errorf("memo stored a config holding a NaN: %#v", c)
		}
	}
	digestMu.Unlock()

	zero, negZero := DefaultConfig(4), DefaultConfig(4)
	zero.ExogProb, negZero.ExogProb = 0, math.Copysign(0, -1)
	if zero.Digest() != negZero.Digest() {
		t.Error("configs that compare equal got different digests")
	}
}

// TestNewRejectsNonPowerOfTwoGeometry checks every rule of Validate, the
// machine's only check: each bad value is rejected with an error that
// names its field, and New panics with the same text. The cache set index
// uses mask arithmetic, so the L2's set count must be a power of two, and
// the error names the power of two to round up to.
func TestNewRejectsNonPowerOfTwoGeometry(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		field   string
		mutate  func(*Config)
		wantMsg string
	}{
		{"Strands=0", func(c *Config) { c.Strands = 0 }, "Strands must be in [1,64], got 0"},
		{"Strands=65", func(c *Config) { c.Strands = 65 }, "Strands must be in [1,64], got 65"},
		{"MemWords=0", func(c *Config) { c.MemWords = 0 }, "MemWords must be in [1,4294967296], got 0"},
		{"MemWords=2^32+1", func(c *Config) { c.MemWords = 1<<32 + 1 }, "MemWords must be in [1,4294967296], got 4294967297"},
		{"Mode", func(c *Config) { c.Mode = 2 }, "Mode must be SSE (0) or SE (1), got 2"},
		{"Quantum=0", func(c *Config) { c.Quantum = 0 }, "Quantum must be in [1,4611686018427387904], got 0"},
		{"Quantum=2^62+1", func(c *Config) { c.Quantum = 1<<62 + 1 }, "Quantum must be in [1,4611686018427387904], got 4611686018427387905"},
		{"MaxCycles", func(c *Config) { c.MaxCycles = -1 }, "MaxCycles must be >= 0 (0 disables), got -1"},
		{"L2Sets", func(c *Config) { c.L2Sets = 5000 },
			"L2Sets must be a power of two for mask indexing, got 5000 (round up to 8192)"},
		{"L2Sets=0", func(c *Config) { c.L2Sets = 0 }, "L2Sets must be a power of two for mask indexing, got 0"},
		{"L2Ways=0", func(c *Config) { c.L2Ways = 0 }, "L2Ways must be positive, got 0"},
		{"L2Ways=-8", func(c *Config) { c.L2Ways = -8 }, "L2Ways must be positive, got -8"},
		{"CTIAbortProb", func(c *Config) { c.CTIAbortProb = 1.5 }, "CTIAbortProb must be a probability in [0,1], got 1.5"},
		{"UCTIAbortProb", func(c *Config) { c.UCTIAbortProb = -0.1 }, "UCTIAbortProb must be a probability in [0,1], got -0.1"},
		{"StoreAfterMissProb", func(c *Config) { c.StoreAfterMissProb = nan }, "StoreAfterMissProb must be a probability in [0,1], got NaN"},
		{"ExogProb", func(c *Config) { c.ExogProb = 2 }, "ExogProb must be a probability in [0,1], got 2"},
		{"Faults.InterruptProb", func(c *Config) { c.Faults.InterruptProb = nan }, "Faults.InterruptProb must be a probability in [0,1], got NaN"},
		{"Faults.TLBShootdownProb", func(c *Config) { c.Faults.TLBShootdownProb = -1 }, "Faults.TLBShootdownProb must be a probability in [0,1], got -1"},
		{"Faults.InvalidateProb", func(c *Config) { c.Faults.InvalidateProb = 1.01 }, "Faults.InvalidateProb must be a probability in [0,1], got 1.01"},
		{"Faults.EvictMarkedProb", func(c *Config) { c.Faults.EvictMarkedProb = math.Inf(1) }, "Faults.EvictMarkedProb must be a probability in [0,1], got +Inf"},
		{"Faults.SqueezeStoreQueue", func(c *Config) { c.Faults.SqueezeStoreQueue = -1 }, "Faults.SqueezeStoreQueue must be >= 0 (0 keeps the mode's), got -1"},
		{"Faults.SqueezeDeferredQueue", func(c *Config) { c.Faults.SqueezeDeferredQueue = -4 }, "Faults.SqueezeDeferredQueue must be >= 0 (0 keeps the mode's), got -4"},
		{"HTM.VM", func(c *Config) { c.HTM.VM = 2 }, "HTM.VM must be VMLazy or VMEager, got 2"},
		{"HTM.Detect", func(c *Config) { c.HTM.Detect = 2 }, "HTM.Detect must be DetectEager or DetectLazy, got 2"},
		{"HTM.Resolve", func(c *Config) { c.HTM.Resolve = 3 }, "HTM.Resolve must be ResRequesterWins, ResCommitterWins or ResTimestamp, got 3"},
		{"HTM.StickyLines", func(c *Config) { c.HTM.StickyLines = -1 }, "HTM.StickyLines must be >= 0, got -1"},
		{"HTM.VM+Detect", func(c *Config) { c.HTM = HTMDesign{VM: VMEager, Detect: DetectLazy} }, "HTM{VM: VMEager, Detect: DetectLazy} is incoherent"},
		{"HTM.Detect+Resolve", func(c *Config) { c.HTM = HTMDesign{Detect: DetectLazy, Resolve: ResTimestamp} }, "HTM with DetectLazy arbitrates at commit"},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			cfg := DefaultConfig(1)
			cfg.MemWords = 1 << 16
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted invalid %s", tc.field)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("Validate error %q does not contain %q", err, tc.wantMsg)
			}
			defer func() {
				if r := recover(); r != err.Error() {
					t.Fatalf("New panicked with %v, want Validate's %q", r, err)
				}
			}()
			New(cfg)
		})
	}
}

// TestNewAcceptsPowerOfTwoGeometry is the positive half: a non-default but
// valid power-of-two L2 geometry constructs fine, and New applies no
// default of its own.
func TestNewAcceptsPowerOfTwoGeometry(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MemWords = 1 << 16
	cfg.L2Sets, cfg.L2Ways = 8192, 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := New(cfg).Config(); got != cfg {
		t.Fatalf("config not honoured: New built %+v from %+v", got, cfg)
	}
}

// Bounds FuzzConfig puts on valid inputs to keep each run cheap: memory
// and the L2 cost host memory in proportion to their size.
const (
	fuzzMaxMemWords = 1 << 24
	fuzzMaxL2Sets   = 1 << 16
	fuzzMaxL2Ways   = 64
)

// FuzzConfig fuzzes every settable value of Config, its HTMDesign and its
// FaultPlan. For each input either Validate returns an error, which New
// must panic with, or a fixed-length run finishes without a panic and
// passes the machine audit at every transaction begin, commit and abort:
// every strand makes a few hardware attempts over shared lines, each
// followed by a plain store. The run replaces the fuzzed MaxCycles with
// its own budget, so that the guard trips only on a run that stalls.
func FuzzConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, strands, memWords, mode int, seed uint64, quantum, maxCycles int64,
		l2Sets, l2Ways int, cti, ucti, storeAfterMiss, exog float64,
		interrupt, shootdown, invalidate, evict float64, squeezeSQ, squeezeDQ int,
		vm, detect, resolve uint8, sticky int) {
		cfg := Config{
			Strands: strands, MemWords: memWords, Mode: Mode(mode), Seed: seed,
			Quantum: quantum, MaxCycles: maxCycles, L2Sets: l2Sets, L2Ways: l2Ways,
			CTIAbortProb: cti, UCTIAbortProb: ucti, StoreAfterMissProb: storeAfterMiss, ExogProb: exog,
			Faults: FaultPlan{
				InterruptProb: interrupt, TLBShootdownProb: shootdown,
				InvalidateProb: invalidate, EvictMarkedProb: evict,
				SqueezeStoreQueue: squeezeSQ, SqueezeDeferredQueue: squeezeDQ,
			},
			HTM: HTMDesign{
				VM: VersionMgmt(vm), Detect: ConflictDetection(detect),
				Resolve: ConflictResolution(resolve), StickyLines: sticky,
			},
		}
		if err := cfg.Validate(); err != nil {
			defer func() {
				if r := recover(); r != err.Error() {
					t.Fatalf("New panicked with %v, want Validate's %q", r, err)
				}
			}()
			New(cfg)
			return
		}
		if memWords > fuzzMaxMemWords || l2Sets > fuzzMaxL2Sets || l2Ways > fuzzMaxL2Ways {
			t.Skip("valid, but too large to run cheaply")
		}
		cfg.MaxCycles = 1 << 24
		m := New(cfg)
		defer m.Recycle()
		audit := attachAudit(m)
		const lines = 8
		a := m.Mem().AllocLines(lines * WordsPerLine)
		line := func(i int) Addr { return a + Addr(i%lines*WordsPerLine) }
		m.Run(func(s *Strand) {
			for i := 0; i < 4; i++ {
				s.TxBegin()
				ok := true
				for k := 0; ok && k < 3; k++ {
					var v Word
					if v, ok = s.TxLoad(line(s.ID() + i + k)); ok {
						ok = s.TxBranch(uint32(k), v&1 == 0, true) && s.TxStore(line(s.ID()+i+k), v+1)
					}
				}
				if ok {
					s.TxCommit()
				}
				s.CPS()
				s.Store(line(s.ID()+i), Word(i))
			}
		})
		if audit.err != nil {
			t.Fatal(audit.err)
		}
	})
}
