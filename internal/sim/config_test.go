package sim

import (
	"strings"
	"testing"
)

// TestMicroDTLBDefaultsConsistent guards against the configuration drift
// where DefaultConfig advertised a 64-entry micro-DTLB while New's
// zero-value fallback silently installed an 8-entry one: a hand-rolled
// Config that left MicroDTLB unset simulated a machine with 8x the
// store-TLB pressure (and thus wildly more ST-flagged transaction
// failures) than the documented default. Both paths must agree.
// TestConfigDigest pins the properties the experiment runner's cache
// keys depend on: the digest is stable for equal configs and changes
// when any behaviour-relevant field changes — including cost-table
// entries, which live in a nested struct.
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
		"l1sets":   func(c *Config) { c.L1Sets = 256 },
		"sq/bank":  func(c *Config) { c.StoreQueuePerBank = 4 },
		"cost":     func(c *Config) { c.Costs.L2Hit = 99 },
		"ucti":     func(c *Config) { c.UCTIAbortProb = 0.99 },
		// The HTM design axes must key the cache: serving a Rock result
		// for an eager-VM config (or vice versa) would silently corrupt
		// every htmdesign sweep.
		"htm/vm":      func(c *Config) { c.HTM.VM = VMEager },
		"htm/detect":  func(c *Config) { c.HTM.Detect = DetectLazy },
		"htm/resolve": func(c *Config) { c.HTM.Resolve = ResCommitterWins },
		"htm/sticky":  func(c *Config) { c.HTM.StickyLines = 8 },
		"cost/nack":   func(c *Config) { c.Costs.NackStall = 99 },
	}
	for name, mutate := range mutations {
		c := DefaultConfig(4)
		mutate(&c)
		if c.Digest() == base.Digest() {
			t.Errorf("changing %s did not change the config digest", name)
		}
	}
}

// TestNewRejectsNonPowerOfTwoGeometry pins the loud-failure contract the
// mask-indexing fast paths depend on: every cache/TLB geometry parameter
// must be a power of two, and the panic message must name the offending
// field, the bad value, and the next power of two to round up to. A
// cache's way count need only be positive: with no ways, the first access
// used to crash with an index out of range, and negative ways crashed New
// in makeslice.
func TestNewRejectsNonPowerOfTwoGeometry(t *testing.T) {
	cases := []struct {
		field   string
		mutate  func(*Config)
		wantMsg string
	}{
		{"L1Sets", func(c *Config) { c.L1Sets = 100 },
			"L1Sets must be a power of two for mask indexing, got 100 (round up to 128)"},
		{"L2Sets", func(c *Config) { c.L2Sets = 5000 },
			"L2Sets must be a power of two for mask indexing, got 5000 (round up to 8192)"},
		{"MicroDTLB", func(c *Config) { c.MicroDTLB = 48 },
			"MicroDTLB must be a power of two for mask indexing, got 48 (round up to 64)"},
		{"MainDTLB", func(c *Config) { c.MainDTLB = 513 },
			"MainDTLB must be a power of two for mask indexing, got 513 (round up to 1024)"},
		{"ITLB", func(c *Config) { c.ITLB = -8 },
			"ITLB must be a power of two for mask indexing, got -8"},
		{"L1Ways=0", func(c *Config) { c.L1Ways = 0 }, "L1Ways must be positive, got 0"},
		{"L1Ways=-4", func(c *Config) { c.L1Ways = -4 }, "L1Ways must be positive, got -4"},
		{"L2Ways=0", func(c *Config) { c.L2Ways = 0 }, "L2Ways must be positive, got 0"},
		{"L2Ways=-8", func(c *Config) { c.L2Ways = -8 }, "L2Ways must be positive, got -8"},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("New accepted invalid %s", tc.field)
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %v (%T), want string", r, r)
				}
				if !strings.Contains(msg, tc.wantMsg) {
					t.Fatalf("panic %q does not contain %q", msg, tc.wantMsg)
				}
			}()
			cfg := DefaultConfig(1)
			cfg.MemWords = 1 << 16
			tc.mutate(&cfg)
			New(cfg)
		})
	}
}

// TestNewAcceptsPowerOfTwoGeometry is the positive half: a non-default but
// valid power-of-two geometry constructs fine.
func TestNewAcceptsPowerOfTwoGeometry(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MemWords = 1 << 16
	cfg.L1Sets, cfg.L2Sets = 256, 8192
	cfg.MicroDTLB, cfg.MainDTLB, cfg.ITLB = 32, 1024, 128
	m := New(cfg)
	if m.Config().L1Sets != 256 {
		t.Fatalf("config not honoured: L1Sets = %d", m.Config().L1Sets)
	}
}

func TestMicroDTLBDefaultsConsistent(t *testing.T) {
	def := DefaultConfig(1)
	if def.MicroDTLB != DefaultMicroDTLB {
		t.Errorf("DefaultConfig.MicroDTLB = %d, want DefaultMicroDTLB (%d)", def.MicroDTLB, DefaultMicroDTLB)
	}
	m := New(Config{Strands: 1, MemWords: 1 << 16})
	if got := m.Config().MicroDTLB; got != DefaultMicroDTLB {
		t.Errorf("New zero-value fallback MicroDTLB = %d, want DefaultMicroDTLB (%d)", got, DefaultMicroDTLB)
	}
	if m.Config().MicroDTLB != def.MicroDTLB {
		t.Errorf("New fallback (%d) and DefaultConfig (%d) disagree", m.Config().MicroDTLB, def.MicroDTLB)
	}
}
