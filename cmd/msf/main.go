// Command msf runs the Minimum Spanning Forest benchmark (Section 8) on a
// synthetic road network or a DIMACS .gr file, with any of the paper's
// seven variants, validating the result against sequential Kruskal.
//
//	msf -variant opt-le -threads 8 -dim 128
//	msf -variant orig-sky -threads 4 -dimacs east-usa.gr
//	msf -variant opt-le -threads 8 -mode se
//
// It runs one variant on one graph. The sweep over every variant and
// thread count is `figures -exp fig4 -msf-dim N -threads T`.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"rocktm/internal/bench"
	"rocktm/internal/graphgen"
	"rocktm/internal/sim"
)

// cliFlags holds every command-line option. Registration happens on an
// explicit FlagSet so tests can drive validate without a real command line.
type cliFlags struct {
	variant *string
	threads *int
	dim     *int
	extra   *float64
	seed    *uint64
	dimacs  *string
	mode    *string
}

// registerFlags declares the full flag surface on fs.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		variant: fs.String("variant", "opt-le", "seq | {orig,opt}-{sky,lock,le}"),
		threads: fs.Int("threads", 4, "worker threads"),
		dim:     fs.Int("dim", 64, "synthetic grid dimension"),
		extra:   fs.Float64("extra", bench.MSFExtra, "extra shortcut-edge fraction"),
		seed:    fs.Uint64("seed", 1, "graph and run seed"),
		dimacs:  fs.String("dimacs", "", "DIMACS .gr file instead of a synthetic graph"),
		mode:    fs.String("mode", "sse", "chip mode: sse | se"),
	}
}

// validate checks every flag with a bounded range before any graph is
// built, so out-of-range input is a usage error rather than a panic inside
// the simulated machine or a silently substituted value. It returns the
// chip mode -mode names.
func validate(fl *cliFlags) (sim.Mode, error) {
	if !slices.Contains(bench.MSFVariantNames(), "msf-"+*fl.variant) {
		var names []string
		for _, name := range bench.MSFVariantNames() {
			names = append(names, strings.TrimPrefix(name, "msf-"))
		}
		return 0, fmt.Errorf("-variant must be one of %s, got %q", strings.Join(names, ", "), *fl.variant)
	}
	if *fl.threads < 1 || *fl.threads > sim.MaxStrands {
		return 0, fmt.Errorf("-threads must be in [1,%d], got %d", sim.MaxStrands, *fl.threads)
	}
	if *fl.variant == "seq" && *fl.threads != 1 {
		return 0, fmt.Errorf("-variant seq requires -threads 1, got %d", *fl.threads)
	}
	if *fl.dim <= 0 {
		return 0, fmt.Errorf("-dim must be positive, got %d", *fl.dim)
	}
	if !(*fl.extra >= 0) {
		return 0, fmt.Errorf("-extra must not be negative, got %v", *fl.extra)
	}
	if *fl.dimacs == "" {
		if err := bench.CheckMSFGrid(*fl.dim, *fl.dim, *fl.extra); err != nil {
			return 0, fmt.Errorf("-dim %d with -extra %g: %w", *fl.dim, *fl.extra, err)
		}
	}
	switch *fl.mode {
	case "sse":
		return sim.SSE, nil
	case "se":
		return sim.SE, nil
	}
	return 0, fmt.Errorf("-mode must be sse or se, got %q", *fl.mode)
}

func main() {
	fl := registerFlags(flag.CommandLine)
	flag.Parse()
	mode, err := validate(fl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msf:", err)
		os.Exit(2)
	}

	var n int
	var edges []graphgen.Edge
	if *fl.dimacs != "" {
		f, err := os.Open(*fl.dimacs)
		if err != nil {
			fatal(err)
		}
		n, edges, err = graphgen.ReadDIMACS(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		n, edges = graphgen.RoadmapEdges(*fl.dim, *fl.dim, *fl.extra, 1<<20, *fl.seed)
	}
	fmt.Printf("graph: %d vertices, %d undirected edges\n", n, len(edges))

	run, err := bench.RunMSFGraph("msf-"+*fl.variant, n, edges, *fl.threads, *fl.seed, mode)
	if err != nil {
		fatal(err)
	}
	res, st := run.Result, run.Stats
	fmt.Printf("msf-%s x%d: weight=%d edges=%d trees=%d\n", *fl.variant, *fl.threads,
		res.TotalWeight, res.Edges, res.Trees)
	fmt.Printf("running time: %.6f simulated seconds (%.0f cycles)\n",
		run.Seconds, float64(run.Cycles))
	if st.HWAttempts > 0 {
		fmt.Printf("hardware: %d attempts, %d commits, retry fraction %.2f%%\n",
			st.HWAttempts, st.HWCommits, 100*st.RetryFraction())
	}
	if st.Ops > 0 {
		fmt.Printf("atomic blocks: %d (lock fallbacks: %d = %.3f%%)\n",
			st.Ops, st.LockAcquires, 100*float64(st.LockAcquires)/float64(st.Ops))
	}
	if st.CPSHist != nil && st.CPSHist.Total() > 0 {
		fmt.Printf("failure CPS: %s\n", st.CPSHist)
	}
	fmt.Println("validated against sequential Kruskal: OK")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msf:", err)
	os.Exit(1)
}
