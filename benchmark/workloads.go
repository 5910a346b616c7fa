package main

import (
	"strconv"
	"strings"
)

// workload is one cmd/figures command line the benchmark times. Every
// pass adds -parallel 1 (one client, one simulation at a time), -json (the
// output the checks parse) and -seed.
type workload struct {
	name string
	// exps are the cmd/figures experiments the command renders, in the
	// order their figures are printed.
	exps []string
	ops  int
	// points is the number of figure points one pass must print.
	points int
	// warm passes render from a result cache filled during set-up, so only
	// the runner's cache, JSON decoding and rendering run; every other
	// workload recomputes every cell (-no-cache).
	warm bool
}

// workloads are the benchmark's workloads; BENCHMARK.json lists the same
// names with the reason each was chosen. The operation counts keep a pass
// under a second, so a run holds a dozen passes or more: other tenants'
// load on a shared host comes and goes within seconds, and more, shorter
// passes give the fastest one more chances to land in a quiet moment.
var workloads = []workload{
	{name: "rbtree-read", exps: []string{"fig2a"}, ops: 1000, points: 48},
	{name: "rbtree-write", exps: []string{"fig2b"}, ops: 500, points: 48},
	{name: "short-cells", exps: []string{"tail"}, ops: 100, points: 192},
	{name: "fleet", exps: []string{"fleet"}, ops: 500, points: 72},
	{name: "warm-rerender", exps: []string{"fig2a", "fig2b", "tail", "fleet"}, ops: 200, points: 360, warm: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// args is the figures command line of one pass: rendering through the
// result cache in cacheDir, or recomputing every cell when cacheDir is "".
func (w workload) args(seed uint64, cacheDir string) []string {
	a := []string{"-exp", strings.Join(w.exps, ","), "-ops", strconv.Itoa(w.ops),
		"-parallel", "1", "-json", "-seed", strconv.FormatUint(seed, 10)}
	if cacheDir != "" {
		return append(a, "-cache-dir", cacheDir)
	}
	return append(a, "-no-cache")
}
