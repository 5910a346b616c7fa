package bench

import (
	"fmt"

	"rocktm/internal/chat"
	"rocktm/internal/counter"
	"rocktm/internal/dcas"
	"rocktm/internal/jvm"
	"rocktm/internal/sim"
	"rocktm/internal/tle"
	"rocktm/internal/workload"
)

// counterCfg is the counter experiment's machine configuration: short
// transactions need fine-grained interleaving (Quantum=8) for the
// conflict behaviour to be visible.
func counterCfg(threads int, seed uint64) sim.Config {
	cfg := machineCfg(threads, 1<<18, seed)
	cfg.Quantum = 8
	return cfg
}

// counterSpec is the counter driver: one keyless op, no roll — the legacy
// loop drew nothing from the strand RNG and neither does this.
func counterSpec() workload.Spec {
	return workload.Spec{Ops: []workload.Op{{Name: "inc", NoKey: true}}}
}

// CounterFigure reconstructs the Section 4 counter experiment: CAS-based
// and HTM-based increments of one shared counter, with and without
// backoff. The HTM-without-backoff curve shows the requester-wins
// degradation the paper describes as suggesting livelock.
func CounterFigure(o Options) (*Figure, error) {
	o = o.Defaults()
	var curves []curve
	for _, method := range []counter.Method{counter.CAS, counter.CASBackoff, counter.HTM, counter.HTMBackoff} {
		method := method
		curves = append(curves, curve{
			name: method.Name(),
			cfg:  func(threads int) sim.Config { return counterCfg(threads, o.Seed) },
			wl:   counterSpec(),
			build: func(m *sim.Machine) built {
				ctr := counter.New(m)
				return built{
					stats:  ctr,
					strand: func(s *sim.Strand) dispatch { return func(int, int, uint64) { ctr.Inc(s, method) } },
					check: func() error {
						if got, want := ctr.Value(m.Mem()), sim.Word(m.Config().Strands*o.OpsPerThread); got != want {
							return fmt.Errorf("counter %d != %d", got, want)
						}
						return nil
					},
				}
			},
		})
	}
	return o.figure("counter", "Section 4 counter: CAS vs HTM increments, with/without backoff", curves)
}

// dcasSetSpec is the DCAS set driver: key drawn first from [1, keyRange],
// then a 1/3 each insert/remove/contains roll out of 3.
func dcasSetSpec(keyRange int) workload.Spec {
	return workload.Spec{
		Ops: []workload.Op{
			{Name: "insert", Weight: 1},
			{Name: "remove", Weight: 1},
			{Name: "contains", Weight: 1},
		},
		Roll: 3,
		Keys: workload.UniformOffset(keyRange, 1),
	}
}

// dcasQueueSpec is the FIFO queue driver: keyless 50/50 enqueue/dequeue.
func dcasQueueSpec() workload.Spec {
	return workload.Spec{
		Ops: []workload.Op{
			{Name: "enqueue", Weight: 1, NoKey: true},
			{Name: "dequeue", Weight: 1, NoKey: true},
		},
		Roll: 2,
	}
}

// DCASFigure reconstructs the Section 4 comparison of DCAS-based
// reimplementations against hand-crafted java.util.concurrent designs:
// the sorted-list set pair (DCAS unlink-and-poison vs Harris–Michael
// marked pointers) and the FIFO queue pair (DCAS link-and-swing vs the
// Michael–Scott queue), 1/3 each insert/remove/contains for the sets and
// 50/50 enqueue/dequeue for the queues.
func DCASFigure(o Options) (*Figure, error) {
	o = o.Defaults()
	const keyRange = 256
	type setIface interface {
		Insert(s *sim.Strand, key uint64) bool
		Remove(s *sim.Strand, key uint64) bool
		Contains(s *sim.Strand, key uint64) bool
	}
	sets := []struct {
		name  string
		build func(m *sim.Machine) setIface
	}{
		{"dcas-list", func(m *sim.Machine) setIface {
			return dcas.NewDCASList(m, dcas.New(m), keyRange+o.OpsPerThread*m.Config().Strands+64)
		}},
		{"juc-lockfree", func(m *sim.Machine) setIface {
			return dcas.NewHMList(m, keyRange+o.OpsPerThread*m.Config().Strands+64)
		}},
	}
	var curves []curve
	for _, b := range sets {
		b := b
		curves = append(curves, curve{
			name:   b.name,
			params: map[string]string{"keyrange": itoa(keyRange)},
			cfg:    o.machine(1 << 23),
			wl:     dcasSetSpec(keyRange),
			build: func(m *sim.Machine) built {
				set := b.build(m)
				return built{strand: func(s *sim.Strand) dispatch {
					return func(_, op int, key uint64) {
						switch op {
						case 0:
							set.Insert(s, key)
						case 1:
							set.Remove(s, key)
						default:
							set.Contains(s, key)
						}
					}
				}}
			},
		})
	}
	type fifo interface {
		Enqueue(s *sim.Strand, val sim.Word)
		Dequeue(s *sim.Strand) (sim.Word, bool)
	}
	queues := []struct {
		name  string
		build func(m *sim.Machine) fifo
	}{
		{"dcas-queue", func(m *sim.Machine) fifo {
			return dcas.NewDCASQueue(m, dcas.New(m), o.OpsPerThread*m.Config().Strands+64)
		}},
		{"juc-msqueue", func(m *sim.Machine) fifo {
			return dcas.NewMSQueue(m, o.OpsPerThread*m.Config().Strands+64)
		}},
	}
	for _, b := range queues {
		b := b
		curves = append(curves, curve{
			name: b.name,
			cfg:  o.machine(1 << 23),
			wl:   dcasQueueSpec(),
			build: func(m *sim.Machine) built {
				q := b.build(m)
				return built{strand: func(s *sim.Strand) dispatch {
					return func(i, op int, _ uint64) {
						if op == 0 {
							q.Enqueue(s, sim.Word(i))
						} else {
							q.Dequeue(s)
						}
					}
				}}
			},
		})
	}
	return o.figure("dcas", "Section 4 DCAS sets: DCAS list vs hand-crafted lock-free list, keyrange=256", curves)
}

// volanoSpec is the chat driver: the op rolls first out of 100, and only
// the room-switch op draws a key (the new room). Post and read reuse the
// strand's sticky room, so they are keyless — the conditional key draw
// that motivated Op.NoKey.
func volanoSpec(rooms int) workload.Spec {
	return workload.Spec{
		Ops: []workload.Op{
			{Name: "join", Weight: 10},
			{Name: "post", Weight: 30, NoKey: true},
			{Name: "read", Weight: 60, NoKey: true},
		},
		Roll:  100,
		Keys:  workload.Uniform(rooms),
		Order: workload.OpThenKey,
	}
}

// VolanoFigure reconstructs the VolanoMark-style observation closing
// Section 7.2: a chat-server workload run with plain monitors, with TLE
// code emitted but disabled (paying the code-bloat cost), and with TLE
// enabled.
func VolanoFigure(o Options) (*Figure, error) {
	o = o.Defaults()
	const rooms = 16
	configs := []struct {
		name        string
		emit, elide bool
	}{
		{"locks(no-TLE-code)", false, false},
		{"TLE-emitted-disabled", true, false},
		{"TLE-enabled", true, true},
	}
	var curves []curve
	for _, cc := range configs {
		cc := cc
		curves = append(curves, curve{
			name:   cc.name,
			params: map[string]string{"rooms": itoa(rooms)},
			cfg:    o.machine(1 << 21),
			wl:     volanoSpec(rooms),
			build: func(m *sim.Machine) built {
				vm := jvm.New(m, tle.DefaultPolicy())
				vm.EmitTLE = cc.emit
				vm.Elide = cc.elide
				srv := chat.NewServer(m, vm, rooms)
				room := make([]int, m.Config().Strands) // each strand's current room
				return built{
					stats: vm,
					strand: func(s *sim.Strand) dispatch {
						r := &room[s.ID()]
						*r = s.ID() % rooms
						srv.Join(s, *r)
						return func(i, op int, key uint64) {
							switch op {
							case 0:
								*r = int(key)
								srv.Join(s, *r)
							case 1:
								srv.Post(s, *r, sim.Word(i))
							default:
								srv.ReadRecent(s, *r, 8)
							}
						}
					},
					leave: func(s *sim.Strand) { srv.Leave(s, room[s.ID()]) },
				}
			},
		})
	}
	return o.figure("volano", "Section 7.2 (text) VolanoMark-like chat workload", curves)
}
