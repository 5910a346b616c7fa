package bench

import (
	"bytes"
	"strings"
	"testing"

	"rocktm/internal/runner"
)

// The tail experiment's latency digests ride through the runner's cache
// as part of each Point, so a latency-carrying figure must survive the
// pool and the JSON round trip byte-for-byte like every other figure:
// serial == 8-worker parallel == warm cache.
func TestTailParallelMatchesSerialByteForByte(t *testing.T) {
	o := Options{Threads: []int{1, 2}, OpsPerThread: 80, Seed: 1}

	serialFig, err := TailFigure(o) // o.Runner == nil: one worker, no cache
	if err != nil {
		t.Fatal(err)
	}
	serial := renderAll(t, serialFig)

	cache, err := runner.OpenCache(t.TempDir(), runner.CacheVersion)
	if err != nil {
		t.Fatal(err)
	}
	po := o
	po.Runner = &runner.Pool{Workers: 8, Cache: cache}
	for pass, label := range []string{"parallel", "warm-cache"} {
		fig, err := TailFigure(po)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(t, fig); !bytes.Equal(serial, got) {
			t.Fatalf("pass %d (%s) tail output differs from serial:\n--- serial ---\n%s\n--- got ---\n%s",
				pass, label, serial, got)
		}
	}
	for _, w := range cache.Warnings() {
		t.Errorf("unexpected cache warning: %s", w)
	}
}

// Every tail point must carry the full percentile digest: the rendered
// output contains the latency tables, the CSV rows grow the four
// percentile columns, and the digests are internally consistent
// (count == ops, p50 <= p90 <= p99 <= p99.9 <= max).
func TestTailReportsPercentiles(t *testing.T) {
	o := Options{Threads: []int{1, 2}, OpsPerThread: 60, Seed: 1}
	fig, err := TailFigure(o)
	if err != nil {
		t.Fatal(err)
	}
	if !fig.hasLatency() {
		t.Fatal("tail figure carries no latency digests")
	}
	for _, c := range fig.Curves {
		for _, p := range c.Points {
			l := p.Lat
			if l == nil {
				t.Fatalf("%s@%dT: nil latency digest", c.Name, p.Threads)
			}
			if want := uint64(p.Threads * o.OpsPerThread); l.Count != want {
				t.Errorf("%s@%dT: latency count %d, want %d", c.Name, p.Threads, l.Count, want)
			}
			if l.P50 <= 0 || l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.P999 || l.P999 > l.Max {
				t.Errorf("%s@%dT: percentiles not monotone: %+v", c.Name, p.Threads, *l)
			}
		}
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	out := buf.String()
	for _, want := range []string{"operation latency p50", "operation latency p99.9"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tail figure missing %q section", want)
		}
	}
	buf.Reset()
	fig.CSV(&buf)
	line, _, _ := strings.Cut(buf.String(), "\n")
	rest, ok := strings.CutPrefix(line, fig.Title+",")
	if !ok {
		t.Fatalf("tail CSV row does not start with the title: %q", line)
	}
	// name,threads,ops_per_usec,extra,p50,p90,p99,p999 — eight fields.
	if got := strings.Count(rest, ","); got != 7 {
		t.Errorf("tail CSV row has %d commas after the title, want 7 (four latency columns appended): %q", got, line)
	}
}

// Latency capture is opt-in: a legacy figure run without -latency must
// carry no digests (preserving the golden byte layout), and the same
// figure with Latency on must carry one per point while leaving the
// throughput column untouched — the recorder observes, never perturbs.
func TestLatencyOptInDoesNotPerturbThroughput(t *testing.T) {
	o := Options{Threads: []int{1, 2}, OpsPerThread: 80, Seed: 1}
	plain, err := Fig2a(o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.hasLatency() {
		t.Fatal("latency digests present without Options.Latency")
	}
	lo := o
	lo.Latency = true
	withLat, err := Fig2a(lo)
	if err != nil {
		t.Fatal(err)
	}
	if !withLat.hasLatency() {
		t.Fatal("Options.Latency set but no digests recorded")
	}
	for ci, c := range plain.Curves {
		for pi, p := range c.Points {
			q := withLat.Curves[ci].Points[pi]
			if p.OpsPerUsec != q.OpsPerUsec || p.Extra != q.Extra {
				t.Errorf("%s@%dT: latency capture changed the measurement: %.6f/%q vs %.6f/%q",
					c.Name, p.Threads, p.OpsPerUsec, p.Extra, q.OpsPerUsec, q.Extra)
			}
		}
	}
}
