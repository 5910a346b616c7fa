package workload

import (
	"rocktm/internal/obs"
	"rocktm/internal/sim"
)

// Driver executes a compiled workload on one strand, closed loop: each
// operation starts the instant the previous one finishes, exactly the
// paper's drivers. Create one per strand per run via Compiled.Driver; the
// steady-state per-operation path (key draw, op roll, latency record)
// allocates nothing.
type Driver struct {
	c   *Compiled
	s   *sim.Strand
	lat *obs.LatencyRecorder
	ws  obs.LatencySink
}

// Driver binds the compiled workload to a strand. lat may be nil (no
// latency capture). The recorder may be shared by all strands of a run:
// the machine baton serializes strand execution, so a single histogram is
// race-free and merges for free.
func (c *Compiled) Driver(s *sim.Strand, lat *obs.LatencyRecorder) Driver {
	return Driver{c: c, s: s, lat: lat}
}

// Observe additionally streams each operation's (completion cycle,
// latency) pair into ws — the windowed timeseries recorder — alongside
// the run-wide histogram. nil detaches. Observation cannot perturb the
// run: the sink call happens after the operation completes and follows
// the same no-cycles/no-randomness contract as the latency recorder.
func (d *Driver) Observe(ws obs.LatencySink) { d.ws = ws }

// Run executes n operations, invoking do(i, op, key) for each: i is the
// iteration index (the legacy loops' loop variable), op indexes the spec's
// Ops slice, and key is the drawn key (0 for keyless ops). Per-operation
// latency — begin to completion in simulated cycles, including every
// hardware retry, backoff and fallback inside the op — is recorded into
// the attached recorder.
func (d *Driver) Run(n int, do func(i, op int, key uint64)) {
	for i := 0; i < n; i++ {
		start := d.s.Clock()
		op, key := d.c.draw(d.s.Rand)
		do(i, op, key)
		if d.lat != nil {
			d.lat.Record(d.s.Clock() - start)
		}
		if d.ws != nil {
			d.ws.RecordLatencyAt(d.s.Clock(), d.s.Clock()-start)
		}
	}
}
