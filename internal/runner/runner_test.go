package runner

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func testSpec() Spec {
	return Spec{
		Experiment: "fig1a",
		System:     "phtm",
		Threads:    4,
		Ops:        4000,
		Seed:       1,
		SimDigest:  "abcd1234",
		Params:     map[string]string{"keyrange": "256", "lookup": "0"},
	}
}

// Every field of the spec must bust the cache key: seed, ops, threads,
// sim-config digest, experiment, system, params.
func TestSpecHashSensitivity(t *testing.T) {
	base := testSpec()
	mutations := map[string]func(*Spec){
		"seed":       func(s *Spec) { s.Seed = 2 },
		"ops":        func(s *Spec) { s.Ops = 8000 },
		"threads":    func(s *Spec) { s.Threads = 8 },
		"sim digest": func(s *Spec) { s.SimDigest = "ffff0000" },
		"experiment": func(s *Spec) { s.Experiment = "fig1b" },
		"system":     func(s *Spec) { s.System = "hytm" },
		"param":      func(s *Spec) { s.Params["keyrange"] = "128000" },
	}
	for name, mutate := range mutations {
		s := testSpec()
		mutate(&s)
		if s.Hash(CacheVersion) == base.Hash(CacheVersion) {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
	// Param order must not matter: the key is canonical.
	a := testSpec()
	b := Spec{
		Experiment: a.Experiment, System: a.System, Threads: a.Threads,
		Ops: a.Ops, Seed: a.Seed, SimDigest: a.SimDigest,
		Params: map[string]string{"lookup": "0", "keyrange": "256"},
	}
	if a.Hash(CacheVersion) != b.Hash(CacheVersion) {
		t.Error("equal specs produced different hashes")
	}
}

// A stale code-version salt must invalidate old entries.
func TestSpecHashSaltSensitivity(t *testing.T) {
	s := testSpec()
	if s.Hash("v1") == s.Hash("v2") {
		t.Error("changing the version salt did not change the cache key")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "test-v1")
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	payload := []byte(`{"threads":4,"ops_per_usec":1.25}`)
	var got json.RawMessage
	if get(c, spec, &got) {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(spec, payload); err != nil {
		t.Fatal(err)
	}
	if !get(c, spec, &got) {
		t.Fatal("miss after Put")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %s != %s", got, payload)
	}
	if w := c.Warnings(); len(w) != 0 {
		t.Fatalf("unexpected warnings: %v", w)
	}
}

// An entry written under an older version salt is a silent miss, and the
// recompute's Put overwrites it in place (same file only if same salt —
// under a new salt the hash differs, so both entries coexist and the old
// one is simply never read again).
func TestCacheVersionSaltInvalidates(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	old, err := OpenCache(dir, "old-version")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Put(spec, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	fresh, err := OpenCache(dir, "new-version")
	if err != nil {
		t.Fatal(err)
	}
	var got json.RawMessage
	if get(fresh, spec, &got) {
		t.Fatal("stale-version entry served")
	}
}

// A corrupted cache file must fall back to recompute with a warning,
// never a crash.
func TestCacheCorruptedEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, "test-v1")
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	if err := c.Put(spec, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, spec.Hash("test-v1")+".json")
	if err := os.WriteFile(path, []byte("{truncated garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got json.RawMessage
	if get(c, spec, &got) {
		t.Fatal("corrupted entry served")
	}
	w := c.Warnings()
	if len(w) != 1 || !strings.Contains(w[0], "corrupted") {
		t.Fatalf("expected one corruption warning, got %v", w)
	}
	// And a same-hash entry whose recorded key disagrees (hash collision
	// or a hand-edited file) is also refused, with a warning.
	other := testSpec()
	other.Seed = 99
	e := cacheEntry{Version: "test-v1", Key: other.Key(), Spec: other, Payload: []byte(`{"v":2}`)}
	raw, _ := json.Marshal(&e)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if get(c, spec, &got) {
		t.Fatal("key-mismatched entry served")
	}
	if w := c.Warnings(); len(w) != 1 || !strings.Contains(w[0], "mismatch") {
		t.Fatalf("expected one mismatch warning, got %v", w)
	}
}

// Pool results must land in submission order regardless of scheduling,
// and a cached rerun must serve every cell, computing none, and return
// the identical values.
func TestPoolDeterministicMergeAndCache(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir, "test-v1")
	if err != nil {
		t.Fatal(err)
	}
	newCells := func(computes *atomic.Int64) []Cell[json.RawMessage] {
		cells := make([]Cell[json.RawMessage], 12)
		for i := range cells {
			spec := testSpec()
			spec.Threads = i + 1
			cells[i] = Cell[json.RawMessage]{Spec: spec, Compute: func() (json.RawMessage, error) {
				computes.Add(1)
				return json.RawMessage(fmt.Sprintf(`{"cell":%d}`, i)), nil
			}}
		}
		return cells
	}
	var computes atomic.Int64
	var mu sync.Mutex
	var final Progress
	p := &Pool{Workers: 8, Cache: cache}
	p.OnProgress = func(pr Progress) {
		mu.Lock()
		if pr.Done == pr.Total {
			final = pr
		}
		mu.Unlock()
	}
	results, err := RunCells(p, newCells(&computes))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if want := fmt.Sprintf(`{"cell":%d}`, i); string(r) != want {
			t.Fatalf("job %d out of order: got %s want %s", i, r, want)
		}
	}
	if final.Cached != 0 {
		t.Fatalf("%d jobs cached on a cold cache", final.Cached)
	}
	if computes.Load() != 12 {
		t.Fatalf("computed %d cells, want 12", computes.Load())
	}
	// Warm rerun: all hits, same bytes, zero computes.
	rerun, err := RunCells(p, newCells(&computes))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rerun {
		if string(r) != string(results[i]) {
			t.Fatalf("job %d: cache hit bytes differ", i)
		}
	}
	if final.Total != 24 || final.Cached != 12 {
		t.Fatalf("warm rerun progress = %+v, want 12 of 24 cached", final)
	}
	if computes.Load() != 12 {
		t.Fatalf("warm rerun recomputed cells (%d total computes)", computes.Load())
	}
}

// A panicking job is isolated: its Result carries the error, every other
// job completes, and RunAll itself does not panic.
func TestPoolPanicIsolation(t *testing.T) {
	p := &Pool{Workers: 4}
	jobs := make([]Job, 5)
	for i := range jobs {
		i := i
		spec := testSpec()
		spec.Threads = i + 1
		jobs[i] = Job{Spec: spec, Run: func(*Cache) (bool, error) {
			if i == 2 {
				panic("wedged cell")
			}
			return false, nil
		}}
	}
	results := p.RunAll(jobs)
	for i, r := range results {
		if i == 2 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "wedged cell") {
				t.Fatalf("panicking job not reported: %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("job %d failed collaterally: %v", i, r.Err)
		}
	}
}

// Progress counters flow through the callback, once per job; the report
// for the last job to finish counts every job.
func TestPoolProgressAndMetrics(t *testing.T) {
	var mu sync.Mutex
	var reports []Progress
	p := &Pool{Workers: 2}
	p.OnProgress = func(pr Progress) {
		mu.Lock()
		reports = append(reports, pr)
		mu.Unlock()
	}
	jobs := make([]Job, 6)
	for i := range jobs {
		spec := testSpec()
		spec.Threads = i + 1
		jobs[i] = Job{Spec: spec, Run: func(*Cache) (bool, error) { return false, nil }}
	}
	p.RunAll(jobs)
	if len(reports) != 6 {
		t.Fatalf("progress callback fired %d times, want 6", len(reports))
	}
	var final *Progress
	for i := range reports {
		if reports[i].Done == 6 {
			final = &reports[i]
		}
	}
	if final == nil {
		t.Fatalf("no report counted all 6 jobs done: %+v", reports)
	}
	if final.Total != 6 || final.Cached != 0 || final.Failed != 0 {
		t.Errorf("final progress = %+v, want 6 total, 0 cached, 0 failed", *final)
	}
}

// RunCells routes typed values through canonical JSON identically on the
// nil-pool path, the pooled path, and the cache-hit path.
func TestRunCellsTypedRoundTrip(t *testing.T) {
	type pt struct {
		Threads int     `json:"threads"`
		Value   float64 `json:"value"`
	}
	mkCells := func() []Cell[pt] {
		cells := make([]Cell[pt], 4)
		for i := range cells {
			i := i
			spec := testSpec()
			spec.Threads = i + 1
			cells[i] = Cell[pt]{Spec: spec, Compute: func() (pt, error) {
				return pt{Threads: i + 1, Value: 1.0 / float64(i+3)}, nil
			}}
		}
		return cells
	}
	serial, err := RunCells[pt](nil, mkCells())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(t.TempDir(), "test-v1")
	if err != nil {
		t.Fatal(err)
	}
	p := &Pool{Workers: 4, Cache: cache}
	pooled, err := RunCells(p, mkCells())
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunCells(p, mkCells())
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != pooled[i] || pooled[i] != cached[i] {
			t.Fatalf("cell %d: serial=%v pooled=%v cached=%v", i, serial[i], pooled[i], cached[i])
		}
	}
}

// A nil pool is one worker without a cache: its cells run one at a time
// in submission order, a panicking cell comes back as that cell's error,
// and the cells after it still run.
func TestNilPoolRunsInOrderAndIsolatesPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped RunCells: %v", r)
		}
	}()
	var ran []int
	cells := make([]Cell[int], 5)
	for i := range cells {
		i := i
		spec := testSpec()
		spec.Threads = i + 1
		cells[i] = Cell[int]{Spec: spec, Compute: func() (int, error) {
			ran = append(ran, i)
			if i == 2 {
				panic("wedged cell")
			}
			return i, nil
		}}
	}
	_, err := RunCells[int](nil, cells)
	if err == nil || !strings.Contains(err.Error(), "wedged cell") ||
		!strings.Contains(err.Error(), cells[2].Spec.String()) {
		t.Fatalf("panicking cell not reported as its error: %v", err)
	}
	if fmt.Sprint(ran) != "[0 1 2 3 4]" {
		t.Fatalf("cells ran in order %v, want [0 1 2 3 4]", ran)
	}
}

// Cache entries written before the entry lost its host-seconds field
// still hit, and hand back the payload byte for byte, so existing cache
// directories keep working under the same CacheVersion.
func TestCacheHitsEntryWithRetiredField(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, "test-v1")
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	payload := []byte(`{"threads":4,"ops_per_usec":1.25}`)
	legacy := struct {
		cacheEntry
		Retired float64 `json:"host_seconds"`
	}{cacheEntry{Version: "test-v1", Key: spec.Key(), Spec: spec, Payload: payload}, 2.5}
	raw, err := json.Marshal(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"host_seconds":2.5`) {
		t.Fatalf("legacy entry lacks the retired field: %s", raw)
	}
	if err := os.WriteFile(filepath.Join(dir, spec.Hash("test-v1")+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var got json.RawMessage
	if !get(c, spec, &got) {
		t.Fatal("entry with the retired field missed")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %s != %s", got, payload)
	}
	if w := c.Warnings(); len(w) != 0 {
		t.Fatalf("unexpected warnings: %v", w)
	}
}

// point is a typed payload shaped like the figures' points.
type point struct {
	Threads int
	Value   float64
}

// writeEntry stores body as the cache file for spec under salt.
func writeEntry(t *testing.T, dir, salt string, spec Spec, body string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, spec.Hash(salt)+".json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// quoted is s as a JSON string.
func quoted(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// Every outcome of the one lookup path: what it serves, what it leaves in
// the slot on a miss, and which outcomes warn. A miss never touches the
// slot, and a payload that is missing, null or mistyped is a corrupted
// entry, never a zero-valued hit.
func TestGetOutcomes(t *testing.T) {
	spec := testSpec()
	other := testSpec()
	other.Seed = 99
	key, otherKey := quoted(spec.Key()), quoted(other.Key())
	entry := func(version, key, payload string) string {
		return `{"version":` + quoted(version) + `,"key":` + key + payload + `}`
	}
	const good = `,"payload":{"Threads":4,"Value":1.5}`
	cases := []struct {
		name string
		body string // "" leaves the file absent
		hit  bool
		warn string // "" for a silent outcome
	}{
		{"hit", entry("test-v1", key, good), true, ""},
		{"plain miss", "", false, ""},
		{"stale version", entry("old-version", key, good), false, ""},
		{"key mismatch", entry("test-v1", otherKey, good), false, "key mismatch"},
		{"invalid JSON", `{truncated garbage`, false, "corrupted"},
		{"missing payload", entry("test-v1", key, ""), false, "corrupted"},
		{"null payload", entry("test-v1", key, `,"payload":null`), false, "corrupted"},
		{"mistyped payload", entry("test-v1", key, `,"payload":{"Threads":"four"}`), false, "corrupted"},
		{"payload of another shape", entry("test-v1", key, `,"payload":[1,2]`), false, "corrupted"},
		{"retired fields", `{"version":"test-v1","key":` + key + `,"spec":{"experiment":"fig1a"}` + good +
			`,"created":"2026-01-02T03:04:05Z","host_seconds":2.5}`, true, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := OpenCache(dir, "test-v1")
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				writeEntry(t, dir, "test-v1", spec, tc.body)
			}
			sentinel := point{Threads: -1, Value: -1}
			got := sentinel
			if hit := get(c, spec, &got); hit != tc.hit {
				t.Fatalf("get = %v, want %v", hit, tc.hit)
			}
			want := sentinel
			if tc.hit {
				want = point{Threads: 4, Value: 1.5}
			}
			if got != want {
				t.Errorf("slot = %+v, want %+v", got, want)
			}
			w := c.Warnings()
			switch {
			case tc.warn == "" && len(w) != 0:
				t.Errorf("unexpected warnings: %v", w)
			case tc.warn != "" && (len(w) != 1 || !strings.Contains(w[0], tc.warn)):
				t.Errorf("warnings = %v, want one %q warning", w, tc.warn)
			}
		})
	}
}

// A payload that is null or does not decode into the cell's type is a
// corrupted entry: RunCells warns and recomputes the cell, and the fresh
// Put overwrites the entry, so the next run serves it. Such an entry is
// never served as a zero value and never fails the sweep.
func TestRunCellsRecomputesCorruptedPayload(t *testing.T) {
	for name, payload := range map[string]string{"null": `null`, "mistyped": `{"Threads":"four"}`} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := OpenCache(dir, "test-v1")
			if err != nil {
				t.Fatal(err)
			}
			spec := testSpec()
			writeEntry(t, dir, "test-v1", spec,
				`{"version":"test-v1","key":`+quoted(spec.Key())+`,"payload":`+payload+`}`)
			want := point{Threads: 4, Value: 1.5}
			computes := 0
			cells := []Cell[point]{{Spec: spec, Compute: func() (point, error) {
				computes++
				return want, nil
			}}}
			var last Progress
			p := &Pool{Workers: 1, Cache: cache, OnProgress: func(pr Progress) { last = pr }}

			got, err := RunCells(p, cells)
			if err != nil {
				t.Fatalf("corrupted entry failed the sweep: %v", err)
			}
			if got[0] != want || computes != 1 || last.Cached != 0 {
				t.Fatalf("got %+v after %d computes, %d cached; want %+v recomputed", got[0], computes, last.Cached, want)
			}
			if w := cache.Warnings(); len(w) != 1 || !strings.Contains(w[0], "corrupted") {
				t.Fatalf("warnings = %v, want one corruption warning", w)
			}

			got, err = RunCells(p, cells)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != want || computes != 1 || last.Cached != 1 {
				t.Fatalf("rerun got %+v after %d computes, %d cached; want the rewritten entry served", got[0], computes, last.Cached)
			}
			if w := cache.Warnings(); len(w) != 0 {
				t.Fatalf("unexpected warnings on the rerun: %v", w)
			}
		})
	}
}

// Four workers share one cache. Cells that share a spec are looked up and
// stored from several workers at once, within one sweep and across two
// concurrent sweeps on the same pool, cold and then warm; every value
// must come back right with no warning. CI runs it under -race.
func TestPoolSharedCacheFourWorkers(t *testing.T) {
	cache, err := OpenCache(t.TempDir(), "test-v1")
	if err != nil {
		t.Fatal(err)
	}
	p := &Pool{Workers: 4, Cache: cache}
	cells := make([]Cell[point], 16)
	for i := range cells {
		spec := testSpec()
		spec.Threads = i%4 + 1
		cells[i] = Cell[point]{Spec: spec, Compute: func() (point, error) {
			return point{Threads: spec.Threads, Value: 1 / float64(spec.Threads+2)}, nil
		}}
	}
	for _, pass := range []string{"cold", "warm"} {
		var wg sync.WaitGroup
		outs := make([][]point, 2)
		errs := make([]error, 2)
		for g := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[g], errs[g] = RunCells(p, cells)
			}()
		}
		wg.Wait()
		for g, out := range outs {
			if errs[g] != nil {
				t.Fatalf("%s sweep %d: %v", pass, g, errs[g])
			}
			for i, v := range out {
				th := cells[i].Spec.Threads
				if want := (point{Threads: th, Value: 1 / float64(th+2)}); v != want {
					t.Fatalf("%s sweep %d cell %d = %+v, want %+v", pass, g, i, v, want)
				}
			}
		}
	}
	if w := cache.Warnings(); len(w) != 0 {
		t.Fatalf("unexpected warnings: %v", w)
	}
}

// fmtKey is Spec.Key as it was first written, with fmt. Cache file names
// and the entry check hang on the key's bytes, so Key must keep them.
func fmtKey(s Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "exp=%s sys=%s threads=%d ops=%d seed=%d sim=%s",
		s.Experiment, s.System, s.Threads, s.Ops, s.Seed, s.SimDigest)
	if len(s.Params) > 0 {
		keys := make([]string, 0, len(s.Params))
		for k := range s.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, s.Params[k])
		}
	}
	return b.String()
}

func TestSpecKeyMatchesFmtForm(t *testing.T) {
	noParams := testSpec()
	noParams.Params = nil
	emptyParams := testSpec()
	emptyParams.Params = map[string]string{}
	extremes := Spec{Experiment: "tail", System: "stm-tl2 ±", Threads: -3, Ops: 1 << 40,
		Seed: math.MaxUint64, SimDigest: "", Params: map[string]string{"z": "", "arrival": "poisson:0.5", "": "x"}}
	for _, s := range []Spec{testSpec(), noParams, emptyParams, {}, extremes} {
		if got, want := s.Key(), fmtKey(s); got != want {
			t.Errorf("Key() = %q, want %q", got, want)
		}
	}
}
