package bench

import (
	"rocktm/internal/core"
	"rocktm/internal/hashtable"
	"rocktm/internal/rbtree"
	"rocktm/internal/sim"
	"rocktm/internal/workload"
)

// kvSession is one strand's session on a key-value structure.
type kvSession interface {
	Insert(key uint64, val sim.Word) bool
	Delete(key uint64) bool
	Lookup(key uint64) (sim.Word, bool)
}

// kvStructure builds and prepopulates a key-value structure on a fresh
// machine and returns its per-strand session constructor.
type kvStructure = func(m *sim.Machine, keyRange int) func(sys core.System, s *sim.Strand) kvSession

// kvConfig describes one key-value workload.
type kvConfig struct {
	keyRange  int
	pctLookup int // percentage of lookups; the rest split 50/50 insert/delete
	memWords  int
	build     kvStructure

	// keys optionally overrides the key distribution; the zero value means
	// the legacy uniform draw over [0, keyRange). Skewed figures (the tail
	// experiment) set it to a zipfian distribution.
	keys workload.Keys
}

// kvCurve is the curve of cfg's structure under the system newSys builds:
// prepopulate with half the key range, then the key drawn first (uniform
// over the key range unless overridden) and the lookup/insert/delete roll
// out of 100, exactly the legacy loop's RNG sequence. The legacy params
// ("keyrange", "lookup") are kept verbatim so cache keys stay put; skewed
// keys add "skew", and extra adds the experiment's own knobs.
func (o Options) kvCurve(name string, cfg kvConfig, newSys func(m *sim.Machine) core.System, extra map[string]string) curve {
	keys := cfg.keys
	params := map[string]string{"keyrange": itoa(cfg.keyRange), "lookup": itoa(cfg.pctLookup)}
	if keys.Dist != workload.KeyNone {
		params["skew"] = keys.String()
	} else {
		keys = workload.Uniform(cfg.keyRange)
	}
	for k, v := range extra {
		params[k] = v
	}
	return curve{
		name:   name,
		params: params,
		cfg:    o.machine(cfg.memWords),
		wl:     workload.KVSpec(keys, cfg.pctLookup),
		build: func(m *sim.Machine) built {
			open := cfg.build(m, cfg.keyRange)
			sys := newSys(m)
			return built{stats: sys, strand: func(s *sim.Strand) dispatch {
				ses := open(sys, s)
				return func(_, op int, key uint64) {
					switch op {
					case workload.OpLookup:
						ses.Lookup(key)
					case workload.OpInsert:
						ses.Insert(key, 1)
					default:
						ses.Delete(key)
					}
				}
			}}
		},
	}
}

// kvFigure sweeps all systems across the thread axis.
func kvFigure(o Options, name, title string, cfg kvConfig) (*Figure, error) {
	var curves []curve
	for _, sb := range tmSystems() {
		curves = append(curves, o.kvCurve(sb.Name, cfg, sb.Build, nil))
	}
	fig, err := o.figure(name, title, curves)
	if err != nil {
		return nil, err
	}
	fig.noteLast(nil)
	return fig, nil
}

func hashtableKV(buckets int) kvStructure {
	return func(m *sim.Machine, keyRange int) func(core.System, *sim.Strand) kvSession {
		t := hashtable.New(m, buckets, keyRange+2*m.Config().Strands+64)
		t.Prepopulate(m.Mem(), workload.PrepopHalf(keyRange), 1)
		return func(sys core.System, s *sim.Strand) kvSession { return t.NewSession(sys, s) }
	}
}

func rbtreeKV(m *sim.Machine, keyRange int) func(core.System, *sim.Strand) kvSession {
	t := rbtree.New(m, keyRange+2*m.Config().Strands+64)
	t.Prepopulate(m.Mem(), workload.PrepopHalfShuffled(keyRange, 7), 1)
	return func(sys core.System, s *sim.Strand) kvSession { return t.NewSession(sys, s) }
}

// Fig1a reconstructs Figure 1(a): hash table, 2^17 buckets, 50% inserts /
// 50% deletes, key range 256.
func Fig1a(o Options) (*Figure, error) {
	o = o.Defaults()
	return kvFigure(o, "fig1a", "Figure 1(a) HashTable keyrange=256, 0% lookups", kvConfig{
		keyRange:  256,
		pctLookup: 0,
		memWords:  1 << 23,
		build:     hashtableKV(1 << 17),
	})
}

// Fig1b reconstructs Figure 1(b): key range 128,000 — the active part of
// the table no longer fits in the L1, leveling the playing field.
func Fig1b(o Options) (*Figure, error) {
	o = o.Defaults()
	return kvFigure(o, "fig1b", "Figure 1(b) HashTable keyrange=128000, 0% lookups", kvConfig{
		keyRange:  128000,
		pctLookup: 0,
		memWords:  1 << 24,
		build:     hashtableKV(1 << 17),
	})
}

// Fig1ReadOnly reconstructs the 100%-lookup observation quoted in Section
// 5's text (data not shown in the paper's graphs).
func Fig1ReadOnly(o Options) (*Figure, error) {
	o = o.Defaults()
	return kvFigure(o, "fig1ro", "Section 5 (text) HashTable keyrange=256, 100% lookups", kvConfig{
		keyRange:  256,
		pctLookup: 100,
		memWords:  1 << 23,
		build:     hashtableKV(1 << 17),
	})
}

// Fig2a reconstructs Figure 2(a): red-black tree, 128 keys, 100% reads.
func Fig2a(o Options) (*Figure, error) {
	o = o.Defaults()
	return kvFigure(o, "fig2a", "Figure 2(a) Red-Black Tree 128 keys, 100% reads", kvConfig{
		keyRange:  128,
		pctLookup: 100,
		memWords:  1 << 22,
		build:     rbtreeKV,
	})
}

// Fig2b reconstructs Figure 2(b): 2048 keys, 96% reads / 2% inserts / 2%
// deletes — the case where PhTM can fall behind a good STM.
func Fig2b(o Options) (*Figure, error) {
	o = o.Defaults()
	return kvFigure(o, "fig2b", "Figure 2(b) Red-Black Tree 2048 keys, 96% reads 2% ins 2% del", kvConfig{
		keyRange:  2048,
		pctLookup: 96,
		memWords:  1 << 22,
		build:     rbtreeKV,
	})
}
