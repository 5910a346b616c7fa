package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// Figure-level cycle identity: the rendered bytes (table + CSV) of a
// fig2a cell matrix, the Table-4-style abort-attribution report and a
// small Figure-4 MSF sweep are pinned against the pre-optimization
// simulator. Together with internal/sim's TestGoldenCycleIdentity this
// guarantees PR 3's hot-path work changed no figure output by even one
// byte. Regenerate (only for an intended modelling change) with:
//
//	BENCH_GOLDEN_REGEN=1 go test ./internal/bench -run TestGoldenFigureBytes
//
// Every entry but the profile runs its catalogue row, so a digest pins
// exactly what `figures -exp NAME` prints (table and CSV) at the entry's
// options.
var goldenFigures = []struct {
	name   string
	render func() ([]byte, error)
	digest string
}{
	{
		// Section 3's directed CPS tests: every scenario's histogram and
		// comment on Rock's design.
		name:   "table1",
		render: catalogued("table1", Options{OpsPerThread: 50, Seed: 1}),
		digest: "72c4e387d346a52e07d0081afffcdb61",
	},
	{
		name:   "fig2a",
		render: catalogued("fig2a", Options{Threads: []int{1, 2, 4, 8}, OpsPerThread: 300, Seed: 1}),
		digest: "4e173ac43af293cdf96467191d33efa7",
	},
	{
		name:   "attrib",
		render: catalogued("attrib", Options{Threads: []int{1, 2, 4, 8}, OpsPerThread: 300, Seed: 1}),
		digest: "d58d233434a00d471aa7fccef7e07c16",
	},
	{
		name:   "fig4",
		render: catalogued("fig4", Options{MSFDim: 16, Threads: []int{1, 2}, Seed: 1}),
		digest: "2bad19ae47781ac3fa00df620f477234",
	},
	{
		// The tail-latency experiment's full rendered output — throughput
		// plus the p50/p99.9 tables, the four-percentile CSV columns and
		// the skew-inflation notes — pinned end to end: any drift in the
		// zipfian generator, the latency histogram's bucketing or the
		// driver's RNG sequencing shows up here.
		name:   "tail",
		render: catalogued("tail", Options{Threads: []int{1, 2}, OpsPerThread: 200, Seed: 1}),
		digest: "b27cc7ec29aab6888fd6311100803969",
	},
	{
		// The fleet experiment — the only multi-machine cells and the only
		// consumer of an arrival process — pinned end to end: the diurnal
		// arrival stream, routing, batching, 2PC and the per-shard window
		// verdicts in its notes.
		name:   "fleet",
		render: catalogued("fleet", Options{OpsPerThread: 60, Seed: 1}),
		digest: "78cd6c797b91190b053a1bfeb2ec62f7",
	},
	// The retry configurations that no other digest reaches: TLE's
	// fixed-count naive policy, PhTM's budget sweep, TLE's UCTI weight,
	// PhTM's per-design tunings under paper and adaptive, and the
	// Section 6.1 profile's 2- and 8-try budgets.
	{
		name:   "fig3a",
		render: catalogued("fig3a", Options{Threads: []int{1, 2, 4, 8}, OpsPerThread: 300, Seed: 1}),
		digest: "32c8bfd623897df43da3fe7c50850283",
	},
	{
		name:   "ablate-retry",
		render: catalogued("ablate-retry", Options{Threads: []int{1, 2, 4}, OpsPerThread: 200, Seed: 1}),
		digest: "36637878d56f0116ad3c25ed825a1a7d",
	},
	{
		// At one or two threads the three weights render identically; at
		// 16 the ucti=2 curve departs.
		name:   "ablate-ucti",
		render: catalogued("ablate-ucti", Options{Threads: []int{16}, OpsPerThread: 300, Seed: 1}),
		digest: "346eef6a39bb3c711e7c4f45aa28c59d",
	},
	{
		name:   "htmdesign",
		render: catalogued("htmdesign", htmTestOptions()),
		digest: "b53d859c20605bb4c17c623c7299c031",
	},
	{
		// The profile row always runs three tree sizes and prints a header;
		// this digest pins the report's lines for two sizes, joined.
		name: "profile",
		render: func() ([]byte, error) {
			return []byte(strings.Join(ProfileReport(150, []int{1024, 4096}).lines(), "\n")), nil
		},
		digest: "dbe8d24e486f08b0a1a1f476988a9e2b",
	},
}

// catalogued runs catalogue row name at o and renders its table and CSV,
// the bytes a digest pins.
func catalogued(name string, o Options) func() ([]byte, error) {
	return func() ([]byte, error) {
		for _, e := range Catalogue {
			if e.Name != name {
				continue
			}
			rep, err := e.Run(o)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			rep.Render(&buf)
			rep.CSV(&buf)
			return buf.Bytes(), nil
		}
		return nil, fmt.Errorf("no catalogue row %q", name)
	}
}

func TestGoldenFigureBytes(t *testing.T) {
	regen := os.Getenv("BENCH_GOLDEN_REGEN") != ""
	for _, g := range goldenFigures {
		out, err := g.render()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		sum := sha256.Sum256(out)
		digest := hex.EncodeToString(sum[:16])
		if regen {
			fmt.Printf("\t%s: digest: %q,\n", g.name, digest)
			continue
		}
		if digest != g.digest {
			t.Errorf("%s: rendered bytes changed: digest %s, pinned %s\n--- got output ---\n%s",
				g.name, digest, g.digest, out)
		}
	}
	if regen {
		t.Fatal("BENCH_GOLDEN_REGEN set: digests printed above; paste and unset")
	}
}
