// Command benchmark times cmd/figures end to end on a fixed set of
// workloads and breaks the time down by layer.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash benchmark/run.sh                                # every workload, untraced then traced
//	bash benchmark/run.sh -workload rbtree-read -seed 2  # one workload
//	bash benchmark/run.sh -json run.json                 # also keep every sample
//	bash benchmark/run.sh -compare a.json,b.json c.json  # judge runs against the bounds
//
// For each workload it builds cmd/figures from a fresh copy of the source
// (the set-up, timed several times), then runs the real binary pass after
// pass for -seconds, one pass at a time, checking every output. The
// end-to-end metrics come from these untraced passes only. A traced run
// follows: one pass with per-cell progress and GC tracing, and the
// in-process layer probe (./probe). Metric names, units and bounds are
// read from BENCHMARK.json. The last line of standard output is a JSON
// summary of the run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rocktm/benchmark/stats"
)

// setupReps is how many times each workload's set-up runs; setup_s is the
// median.
const setupReps = 3

// minPasses is the fewest untraced passes a workload runs, whatever
// -seconds says.
const minPasses = 3

// maxProblems caps the problem descriptions kept per workload.
const maxProblems = 20

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "run only this workload (default: every workload)")
	seed := flag.Uint64("seed", 1, "seed passed to every figures pass and the probe")
	seconds := flag.Int("seconds", 12, "how long each workload's untraced passes run")
	trace := flag.Int("trace", -1, "0: untraced passes only, summary has the end-to-end metrics; 1: add the traced run, summary has the per-layer metrics; default: both")
	jsonOut := flag.String("json", "", "also write the full report, with every sample, to this file")
	compareFlag := flag.Bool("compare", false, "compare -json reports given as two comma-separated lists, OLD.json[,...] NEW.json[,...]")
	spawnFlag := flag.Bool("spawn", false, "internal: run the command given as arguments and report its usage on fd 3")
	flag.Parse()
	if *spawnFlag {
		return spawn(flag.Args())
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root:", err)
		return 2
	}
	if *compareFlag {
		return compareMain(spec, flag.Args(), os.Stdout)
	}
	if *trace < -1 || *trace > 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1 and -seconds at least 1")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if !fileExists(filepath.Join(root, "go.mod")) || !fileExists(filepath.Join(root, "cmd", "figures", "main.go")) {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root: no go.mod or cmd/figures here")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	rep := report{Go: runtime.Version(), NProc: runtime.NumCPU(), Seed: *seed, Seconds: *seconds}
	for _, w := range selected {
		r, err := runWorkload(ctx, root, filepath.Join(scratch, w.name), w, *seed, *seconds, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		e2e := map[string]float64{}
		for _, m := range spec.EndToEnd {
			e2e[m.Name] = reduce(m.Name, r.samples(m.Name))
		}
		r.EndToEnd = withUnits(spec.EndToEnd, e2e)
		if *trace != 0 {
			r.PerLayer = withUnits(spec.PerLayer, r.perLayerValues)
		}
		rep.Workloads = append(rep.Workloads, r)
		printWorkload(os.Stdout, spec, r)
	}
	if *jsonOut != "" {
		rep.Commit, rep.CPU = commit(root), cpuModel()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	printSummary(os.Stdout, rep, *trace)
	return 0
}

// runWorkload sets the workload up, times its untraced passes and, when
// traced is set, adds the traced run's per-layer values.
func runWorkload(ctx context.Context, root, dir string, w workload, seed uint64, seconds int, traced bool) (*workloadReport, error) {
	r := &workloadReport{Name: w.name}
	var b build
	for i := 0; i < setupReps; i++ {
		fmt.Fprintf(os.Stderr, "benchmark: %s: set-up %d/%d\n", w.name, i+1, setupReps)
		repDir := filepath.Join(dir, strconv.Itoa(i))
		bi, took, err := setUp(ctx, root, repDir, w, seed)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			os.RemoveAll(filepath.Join(dir, strconv.Itoa(i-1)))
		}
		r.SetupS = append(r.SetupS, took.Seconds())
		b = bi
	}

	fmt.Fprintf(os.Stderr, "benchmark: %s: timing passes for %ds\n", w.name, seconds)
	r.Args = w.args(seed, b.cacheDir)
	ref := b.coldOut // a cold workload's first pass becomes the reference
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for {
		p := runPass(ctx, b.figures, r.Args, childEnv(), false)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ref == nil {
			ref = p.stdout
		}
		r.check(w, p, ref)
		p.stdout = nil // stay small: a child's peak RSS counts the parent's at exec
		r.Passes = append(r.Passes, p)
		last := time.Duration(p.WallS * float64(time.Second))
		if len(r.Passes) >= minPasses && time.Since(start)+last > budget {
			break
		}
	}
	if traced {
		fmt.Fprintf(os.Stderr, "benchmark: %s: traced run\n", w.name)
		if err := r.traceRun(ctx, dir, w, seed, b, ref); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// check runs the output checks on one pass against the reference output:
// the expected figure documents and points, each point valid, and stdout
// byte-identical to the reference. Failed cells count toward error_rate.
func (r *workloadReport) check(w workload, p pass, ref []byte) {
	r.Attempted += w.points
	if p.err != nil {
		r.fail(w.points, p.err.Error())
		return
	}
	bad, problems := checkOutput(w, p.stdout)
	if !bytes.Equal(p.stdout, ref) {
		bad = w.points
		problems = append(problems, "output differs from the reference output")
	}
	r.fail(bad, problems...)
}

func (r *workloadReport) fail(cells int, problems ...string) {
	r.Failed += cells
	for _, p := range problems {
		if len(r.Problems) < maxProblems {
			r.Problems = append(r.Problems, p)
		}
	}
}

// errorRate is the share of attempted cells that failed a check.
func (r *workloadReport) errorRate() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

var (
	progressLine = regexp.MustCompile(`^figures: \d+/\d+ cells .* last=`)
	gcLine       = regexp.MustCompile(`^gc \d+ @.* (\d+) MB goal`)
)

// cellGaps returns the times between consecutive progress lines of a pass,
// in milliseconds, and the number of progress lines. With one worker each
// gap is one cell as the runner sees it: compute (or cache lookup) plus
// JSON round trip. The first cell has no start mark, so it is left out.
func cellGaps(lines []timedLine) (gaps []float64, cells int) {
	var prev time.Duration
	for _, l := range lines {
		if !progressLine.MatchString(l.text) {
			continue
		}
		if cells > 0 {
			gaps = append(gaps, float64((l.at-prev).Nanoseconds())/1e6)
		}
		prev = l.at
		cells++
	}
	return gaps, cells
}

// meanGap is the mean time between the first and the last progress line
// of a pass, in milliseconds. Cache hits finish faster than the lines can
// be read one by one, so the mean over the whole span is the robust
// per-cell figure there.
func meanGap(lines []timedLine) float64 {
	gaps, _ := cellGaps(lines)
	if len(gaps) == 0 {
		return 0
	}
	return sum(gaps) / float64(len(gaps))
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// gcStats counts the GC cycles in a gctrace and the largest heap goal.
func gcStats(lines []timedLine) (cycles int, goalMaxMB float64) {
	for _, l := range lines {
		m := gcLine.FindStringSubmatch(l.text)
		if m == nil {
			continue
		}
		cycles++
		if g, err := strconv.ParseFloat(m[1], 64); err == nil && g > goalMaxMB {
			goalMaxMB = g
		}
	}
	return cycles, goalMaxMB
}

// traceRun is the traced run: (a) one pass with -progress and
// GODEBUG=gctrace=1, its stderr stamped line by line; a warm re-render of
// the same command for the per-cell cost of a cache hit; and (b) the
// probe, whose replayed points must equal the reference output's.
func (r *workloadReport) traceRun(ctx context.Context, dir string, w workload, seed uint64, b build, ref []byte) error {
	v := map[string]float64{}
	r.perLayerValues = v

	tp := runPass(ctx, b.figures, append(w.args(seed, b.cacheDir), "-progress"), childEnv("GODEBUG=gctrace=1"), true)
	r.check(w, tp, ref)
	r.TracedPass = &tp
	gaps, cells := cellGaps(tp.lines)
	v["runner.cells"] = float64(cells)
	v["runner.cell_ms_p50"] = stats.Median(gaps)
	if pct, val, ok := stats.Tail(gaps); ok {
		v["runner.cell_tail_pct"], v["runner.cell_ms_tail"] = float64(pct), val
	}
	v["runner.outside_cells_ms"] = 1000*tp.WallS - sum(gaps)
	gc, goal := gcStats(tp.lines)
	v["runtime.gc_cycles"], v["runtime.heap_goal_mb_max"] = float64(gc), goal
	if untraced := stats.Median(r.samples("wall_s")); untraced > 0 {
		v["trace.overhead_pct"] = 100 * (tp.WallS/untraced - 1)
	}

	warmLines := tp.lines
	if !w.warm {
		cache := filepath.Join(dir, "trace-cache")
		fill := runPass(ctx, b.figures, w.args(seed, cache), childEnv(), false)
		r.check(w, fill, ref)
		warm := runPass(ctx, b.figures, append(w.args(seed, cache), "-progress"), childEnv(), true)
		r.check(w, warm, ref)
		warmLines = warm.lines
	}
	v["runner.warm_cell_us"] = 1000 * meanGap(warmLines)

	var out struct {
		Figures []figure           `json:"figures"`
		Metrics map[string]float64 `json:"metrics"`
	}
	cmd := command(ctx, childEnv(), b.probe, "-exp", strings.Join(w.exps, ","), "-ops", strconv.Itoa(w.ops), "-seed", strconv.FormatUint(seed, 10))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	data, err := cmd.Output()
	if err := ctx.Err(); err != nil {
		return err
	}
	if err == nil {
		err = json.Unmarshal(data, &out)
	}
	refFigs, _ := parseFigures(ref)
	r.Attempted += w.points
	if err != nil {
		r.fail(w.points, fmt.Sprintf("probe: %v: %s", err, lastLine(stderr.String())))
		return nil
	}
	bad, problems := checkReplay(refFigs, out.Figures)
	r.fail(bad, problems...)
	for k, x := range out.Metrics {
		v[k] = x
	}
	return nil
}

// printWorkload prints every metric of one workload by name with its unit.
func printWorkload(w io.Writer, spec benchSpec, r *workloadReport) {
	fmt.Fprintf(w, "== %s: figures %s\n", r.Name, strings.Join(r.Args, " "))
	fmt.Fprintf(w, "   %d set-ups %s s; %d untraced passes; %d cells attempted, %d failed, error_rate %.4g\n",
		len(r.SetupS), fmtSamples(r.SetupS), len(r.Passes), r.Attempted, r.Failed, r.errorRate())
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	for _, m := range spec.EndToEnd {
		xs := r.samples(m.Name)
		line := fmt.Sprintf("   %-28s %12.6g %-8s n=%d median %.6g spread %.1f%%", m.Name, r.EndToEnd[m.Name].Value, m.Unit, len(xs), stats.Median(xs), 100*stats.Spread(xs))
		if pct, val, ok := stats.Tail(xs); ok {
			line += fmt.Sprintf(" p%d %.6g", pct, val)
		}
		fmt.Fprintln(w, line)
	}
	for _, m := range spec.PerLayer {
		if x, ok := r.PerLayer[m.Name]; ok {
			fmt.Fprintf(w, "   %-28s %12.6g %s\n", m.Name, x.Value, m.Unit)
		}
	}
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printSummary prints the run's one-line JSON summary. Its metrics are the
// end-to-end ones (trace 0), the per-layer ones (trace 1) or both, of the
// single workload run; a run of every workload has no single set, so its
// metrics are keyed workload/metric.
func printSummary(w io.Writer, rep report, trace int) {
	sum := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, r := range rep.Workloads {
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = r.Name + "/"
		}
		if trace != 1 {
			for k, m := range r.EndToEnd {
				sum.Metrics[prefix+k] = m
			}
		}
		if trace != 0 {
			for k, m := range r.PerLayer {
				sum.Metrics[prefix+k] = m
			}
		}
	}
	sum.Correct = sum.Failed == 0 && sum.Attempted > 0
	data, err := json.Marshal(sum)
	if err != nil {
		data = []byte(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
	}
	fmt.Fprintln(w, string(data))
}

// commit names the checked-out commit, with +dirty for uncommitted
// changes, when the repository root is a git work tree.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		c += "+dirty"
	}
	return c
}

// cpuModel is the host CPU's model name, from /proc/cpuinfo on Linux.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
