// Command probe is the benchmark's in-process layer probe. It replays the
// cells of the given cmd/figures experiments through the simulator's
// public constructors, Machine.Run and Fleet.Run, timing each layer on its
// own, then runs the micro-probes. It prints one JSON document: the
// replayed figure points (which the benchmark checks against cmd/figures'
// output) and the per-layer metrics.
//
//	probe -exp fig2a,fig2b -ops 1000 -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// point, curve and figure mirror the fields of cmd/figures' -json output
// that the replay reproduces.
type point struct {
	Threads    int     `json:"threads"`
	OpsPerUsec float64 `json:"ops_per_usec"`
}

type curve struct {
	Name   string  `json:"name"`
	Points []point `json:"points"`
}

type figure struct {
	Curves []curve `json:"curves"`
}

// output is the probe's JSON document.
type output struct {
	Figures []figure           `json:"figures"`
	Metrics map[string]float64 `json:"metrics"`
}

// replay runs cells into t and groups their points into a figure.
func replay(t *tally, cells []cell) (figure, error) {
	var fig figure
	for _, c := range cells {
		v, err := c.run(t)
		if err != nil {
			return figure{}, fmt.Errorf("%s@%d: %w", c.curve, c.x, err)
		}
		if n := len(fig.Curves); n == 0 || fig.Curves[n-1].Name != c.curve {
			fig.Curves = append(fig.Curves, curve{Name: c.curve})
		}
		cur := &fig.Curves[len(fig.Curves)-1]
		cur.Points = append(cur.Points, point{Threads: c.x, OpsPerUsec: v})
	}
	return fig, nil
}

// Reference cells stand in for a layer the replayed experiments do not
// reach on their own: fleet cells build their machines and structures
// inside service.New, and key-value cells run no service tier. Both are
// cells of the workloads' own experiments at a fixed small size.
func referenceKV(seed uint64) cell {
	return kvCells(tailCurves()[2:3], 200, seed)[len(defaultThreads)-1] // ht/phtm/zipf0.99 at 16 threads
}

func referenceFleet(seed uint64) cell {
	return fleetCells(200, seed)[4] // phtm/uniform+x10 on 2 shards, so 2PC runs
}

// probe replays the experiments and measures every layer metric.
func probe(exps []string, ops int, seed uint64, microScale float64) (output, error) {
	out := output{Metrics: map[string]float64{}}
	var t tally
	for _, exp := range exps {
		cells, err := experimentCells(exp, ops, seed)
		if err != nil {
			return output{}, err
		}
		fig, err := replay(&t, cells)
		if err != nil {
			return output{}, fmt.Errorf("%s: %w", exp, err)
		}
		out.Figures = append(out.Figures, fig)
	}
	add := func(m map[string]float64) {
		for k, v := range m {
			out.Metrics[k] = v
		}
	}
	add(t.commonMetrics())
	kv, svc := &t, &t
	if len(t.newUS) == 0 {
		kv = new(tally)
		if _, err := replay(kv, []cell{referenceKV(seed)}); err != nil {
			return output{}, err
		}
	}
	if len(t.svcRunMS) == 0 {
		svc = new(tally)
		if _, err := replay(svc, []cell{referenceFleet(seed)}); err != nil {
			return output{}, err
		}
	}
	add(kv.kvMetrics())
	add(svc.serviceMetrics())
	add(runMicro(microScale))
	return out, nil
}

func main() {
	exp := flag.String("exp", "", "comma-separated cmd/figures experiments to replay (fig2a, fig2b, tail, fleet)")
	ops := flag.Int("ops", 4000, "operations per thread, as cmd/figures -ops")
	seed := flag.Uint64("seed", 1, "experiment seed, as cmd/figures -seed")
	flag.Parse()
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "probe: -exp is required")
		os.Exit(2)
	}
	out, err := probe(strings.Split(*exp, ","), *ops, *seed, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}
