package bench

import (
	"fmt"

	"rocktm/internal/core"
	"rocktm/internal/jcl"
	"rocktm/internal/jvm"
	"rocktm/internal/locktm"
	"rocktm/internal/sim"
	"rocktm/internal/tle"
	"rocktm/internal/vector"
	"rocktm/internal/workload"
)

// vectorSpec is the Figure 3(a) driver: the op rolls first, then the read
// index is drawn — unconditionally, exactly like the legacy loop, which
// consumed an index draw even for push/pop ops that ignore it. That is why
// none of the ops is NoKey.
func vectorSpec(initSize, ctrRange int) workload.Spec {
	return workload.Spec{
		Ops: []workload.Op{
			{Name: "push", Weight: 20},
			{Name: "pop", Weight: 20},
			{Name: "read", Weight: 60},
		},
		Roll:  100,
		Keys:  workload.Uniform(initSize - ctrRange), // always within the populated prefix
		Order: workload.OpThenKey,
	}
}

// Fig3a reconstructs Figure 3(a): TLE in C++ with an STL vector,
// initsize=100, ctr-range=40, increment:decrement:read = 20:20:60, using
// the deliberately simplistic fixed-count retry policy (20 tries, no CPS)
// against one-lock and reader-writer-lock baselines.
func Fig3a(o Options) (*Figure, error) {
	o = o.Defaults()
	const (
		initSize = 100
		ctrRange = 40
		retries  = 20
	)
	systems := []SysBuilder{
		{"htm.oneLock", func(m *sim.Machine) core.System { return tleOverSpin(m, retries) }},
		{"noTM.oneLock", func(m *sim.Machine) core.System { return locktm.NewOneLock(m) }},
		{"htm.rwLock", func(m *sim.Machine) core.System { return tleOverRW(m, retries) }},
		{"noTM.rwLock", func(m *sim.Machine) core.System { return locktm.NewRW(m) }},
	}
	params := map[string]string{"initsize": itoa(initSize), "ctrrange": itoa(ctrRange), "retries": itoa(retries)}
	var curves []curve
	for _, sb := range systems {
		sb := sb
		curves = append(curves, curve{
			name:   sb.Name,
			params: params,
			cfg:    o.machine(1 << 20),
			wl:     vectorSpec(initSize, ctrRange),
			build: func(m *sim.Machine) built {
				v := vector.New(m, initSize+ctrRange+64, initSize)
				sys := sb.Build(m)
				return built{stats: sys, strand: func(s *sim.Strand) dispatch {
					return func(i, op int, key uint64) {
						switch op {
						case 0:
							sys.Atomic(s, func(c core.Ctx) { v.PushBack(c, sim.Word(i)) })
						case 1:
							sys.Atomic(s, func(c core.Ctx) { v.PopBack(c) })
						default:
							sys.AtomicRO(s, func(c core.Ctx) { v.Read(c, int(key)) })
						}
					}
				}}
			},
		})
	}
	return o.figure("fig3a", "Figure 3(a) STLVector initsize=100 ctr-range=40 inc:dec:read=20:20:60", curves)
}

// javaMix is a put:get:remove ratio in tenths, e.g. 2-6-2.
type javaMix struct {
	put, get, remove int
}

func (x javaMix) String() string { return fmt.Sprintf("%d:%d:%d", x.put, x.get, x.remove) }

// spec is the Java-table driver shape: key drawn first, then the
// put/get/remove roll out of 10.
func (x javaMix) spec(keyRange int) workload.Spec {
	return workload.Spec{
		Ops:  workload.TenthsMix(x.put, x.get),
		Roll: 10,
		Keys: workload.Uniform(keyRange),
	}
}

// javaMap is the operation surface the java.util map cells drive.
type javaMap interface {
	Put(s *sim.Strand, key uint64, val sim.Word) bool
	Get(s *sim.Strand, key uint64) (sim.Word, bool)
	Remove(s *sim.Strand, key uint64) bool
}

// javaDispatch is one strand's dispatch of a javaMix roll to t.
func javaDispatch(s *sim.Strand, t javaMap) dispatch {
	return func(_, op int, key uint64) {
		switch op {
		case workload.OpPut:
			t.Put(s, key, 1)
		case workload.OpGet:
			t.Get(s, key)
		default:
			t.Remove(s, key)
		}
	}
}

// hashtableCurve is a curve of java.util.Hashtable cells (the divide
// factored out of the hash) under the JVM newVM builds: keyRange keys,
// half prepopulated, driven by mix.
func (o Options) hashtableCurve(name string, params map[string]string, mix javaMix, keyRange int, newVM func(m *sim.Machine) *jvm.JVM) curve {
	return curve{
		name:   name,
		params: params,
		cfg:    o.machine(1 << 22),
		wl:     mix.spec(keyRange),
		build: func(m *sim.Machine) built {
			vm := newVM(m)
			ht := jcl.NewHashtable(m, vm, 1<<13, keyRange+2*m.Config().Strands+64)
			ht.Prepopulate(m.Mem(), workload.PrepopHalf(keyRange), 1)
			return built{stats: vm, strand: func(s *sim.Strand) dispatch { return javaDispatch(s, ht) }}
		},
	}
}

// Fig3b reconstructs Figure 3(b): TLE in Java with java.util.Hashtable
// (divide factored out of the hash), across operation mixes, TLE vs plain
// monitors.
func Fig3b(o Options) (*Figure, error) {
	o = o.Defaults()
	const keyRange = 4096
	var curves []curve
	for _, mix := range []javaMix{{0, 10, 0}, {1, 8, 1}, {2, 6, 2}, {4, 2, 4}} {
		for _, elide := range []bool{false, true} {
			elide := elide
			label := mix.String() + "-locks"
			if elide {
				label = mix.String() + "-TLE"
			}
			params := map[string]string{"mix": mix.String(), "elide": fmt.Sprint(elide), "keyrange": itoa(keyRange)}
			curves = append(curves, o.hashtableCurve(label, params, mix, keyRange, func(m *sim.Machine) *jvm.JVM {
				vm := jvm.New(m, tle.DefaultPolicy())
				vm.Elide = elide
				return vm
			}))
		}
	}
	return o.figure("fig3b", "Figure 3(b) TLE with Hashtable in Java (put:get:remove mixes)", curves)
}

// getOnlySpec is the 100%-get driver: one op, no roll, one key draw per
// operation — one RandIntn per iteration, like the legacy loop.
func getOnlySpec(keyRange int) workload.Spec {
	return workload.Spec{
		Ops:  []workload.Op{{Name: "get"}},
		Keys: workload.Uniform(keyRange),
	}
}

// DivideHashDemo shows why the benchmark Hashtable factored the divide out
// of its hash function: with the divide left in, every elided transaction
// aborts with CPS=FP and TLE degenerates to locking.
func DivideHashDemo(o Options) (*Figure, error) {
	o = o.Defaults()
	const keyRange = 4096
	var curves []curve
	for _, divide := range []bool{false, true} {
		divide := divide
		name := "hash-no-divide"
		if divide {
			name = "hash-with-divide"
		}
		curves = append(curves, curve{
			name:   name,
			params: map[string]string{"keyrange": itoa(keyRange)},
			cfg:    o.machine(1 << 22),
			wl:     getOnlySpec(keyRange),
			build: func(m *sim.Machine) built {
				vm := jvm.New(m, tle.DefaultPolicy())
				ht := jcl.NewHashtable(m, vm, 1<<13, keyRange+64)
				ht.DivideHash = divide
				ht.Prepopulate(m.Mem(), workload.PrepopHalf(keyRange), 1)
				return built{stats: vm, strand: func(s *sim.Strand) dispatch {
					return func(_, _ int, key uint64) { ht.Get(s, key) }
				}}
			},
		})
	}
	return o.figure("divide", "Section 7.2 (text): Hashtable divide instruction vs factored-out hash, TLE, 100% gets", curves)
}

// InlineDemo reconstructs the Section 7.2 HashMap anecdote: the run starts
// with the synchronized wrapper and HashMap.put inlined together; mid-run
// the JIT outlines put, the function call's save/restore aborts every
// elided transaction (CPS=INST), and throughput collapses toward the lock.
func InlineDemo(o Options) (*Figure, error) {
	o = o.Defaults()
	const keyRange = 4096
	mix := javaMix{2, 6, 2}
	var curves []curve
	for _, outline := range []bool{false, true} {
		outline := outline
		name := "put-inlined"
		if outline {
			name = "put-outlined-midrun"
		}
		curves = append(curves, curve{
			name:   name,
			params: map[string]string{"mix": mix.String(), "keyrange": itoa(keyRange)},
			cfg:    o.machine(1 << 22),
			wl:     mix.spec(keyRange),
			build: func(m *sim.Machine) built {
				vm := jvm.New(m, tle.DefaultPolicy())
				th := m.Config().Strands
				hm := jcl.NewHashMap(m, vm, 1<<13, keyRange+2*th+64)
				if outline {
					hm.PutSite.OutlineAfter = o.OpsPerThread * th / 4
				}
				hm.Prepopulate(m.Mem(), workload.PrepopHalf(keyRange), 1)
				return built{stats: vm, strand: func(s *sim.Strand) dispatch { return javaDispatch(s, hm) }}
			},
		})
	}
	return o.figure("inline", "Section 7.2 (text): HashMap JIT inlining vs outlined put, TLE, mix 2:6:2", curves)
}

// treeMapSpec is the TreeMap driver: key drawn first, then the roll out of
// 100 with put getting floor(pctWrite/2), remove the remainder of the write
// share (the legacy `r < pctWrite/2` / `r < pctWrite` thresholds), and get
// the rest.
func treeMapSpec(keys, pctWrite int) workload.Spec {
	put := pctWrite / 2
	return workload.Spec{
		Ops: []workload.Op{
			{Name: "put", Weight: put},
			{Name: "remove", Weight: pctWrite - put},
			{Name: "get", Weight: 100 - pctWrite},
		},
		Roll: 100,
		Keys: workload.Uniform(keys),
	}
}

// TreeMapDemo reconstructs the Section 7.2 TreeMap observation: good TLE
// results for small, read-only trees; degradation with size and mutation.
func TreeMapDemo(o Options) (*Figure, error) {
	o = o.Defaults()
	scenarios := []struct {
		name     string
		keys     int
		pctWrite int
	}{
		{"small-readonly", 128, 0},
		{"large-mutating", 4096, 20},
	}
	var curves []curve
	for _, sc := range scenarios {
		for _, elide := range []bool{true, false} {
			sc, elide := sc, elide
			name := sc.name + "-locks"
			if elide {
				name = sc.name + "-TLE"
			}
			curves = append(curves, curve{
				name:   name,
				params: map[string]string{"keys": itoa(sc.keys), "write": itoa(sc.pctWrite)},
				cfg:    o.machine(1 << 22),
				wl:     treeMapSpec(sc.keys, sc.pctWrite),
				build: func(m *sim.Machine) built {
					vm := jvm.New(m, tle.DefaultPolicy())
					vm.Elide = elide
					tm := jcl.NewTreeMap(m, vm, sc.keys+2*m.Config().Strands+64)
					tm.Prepopulate(m.Mem(), workload.PrepopHalf(sc.keys), 1)
					return built{stats: vm, strand: func(s *sim.Strand) dispatch {
						return func(_, op int, key uint64) {
							switch op {
							case 0:
								tm.Put(s, key, 1)
							case 1:
								tm.Remove(s, key)
							default:
								tm.Get(s, key)
							}
						}
					}}
				},
			})
		}
	}
	return o.figure("treemap", "Section 7.2 (text): TreeMap under TLE vs locks", curves)
}
