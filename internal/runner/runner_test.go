package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
	if _, ok := c.Get(spec); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(spec, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(spec)
	if !ok {
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
	if _, ok := fresh.Get(spec); ok {
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
	if _, ok := c.Get(spec); ok {
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
	if _, ok := c.Get(spec); ok {
		t.Fatal("key-mismatched entry served")
	}
	if w := c.Warnings(); len(w) != 1 || !strings.Contains(w[0], "mismatch") {
		t.Fatalf("expected one mismatch warning, got %v", w)
	}
}

// Pool results must land in submission order regardless of scheduling,
// and a cached rerun must return the identical payload bytes.
func TestPoolDeterministicMergeAndCache(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir, "test-v1")
	if err != nil {
		t.Fatal(err)
	}
	newJobs := func(computes *atomic.Int64) []Job {
		jobs := make([]Job, 12)
		for i := range jobs {
			i := i
			spec := testSpec()
			spec.Threads = i + 1
			jobs[i] = Job{Spec: spec, Run: func() ([]byte, error) {
				computes.Add(1)
				return []byte(fmt.Sprintf(`{"cell":%d}`, i)), nil
			}}
		}
		return jobs
	}
	var computes atomic.Int64
	p := &Pool{Workers: 8, Cache: cache}
	results := p.RunAll(newJobs(&computes))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if want := fmt.Sprintf(`{"cell":%d}`, i); string(r.Payload) != want {
			t.Fatalf("job %d out of order: got %s want %s", i, r.Payload, want)
		}
		if r.Cached {
			t.Fatalf("job %d cached on a cold cache", i)
		}
	}
	if computes.Load() != 12 {
		t.Fatalf("computed %d cells, want 12", computes.Load())
	}
	// Warm rerun: all hits, same bytes, zero computes.
	rerun := p.RunAll(newJobs(&computes))
	for i, r := range rerun {
		if !r.Cached {
			t.Fatalf("job %d not served from cache", i)
		}
		if string(r.Payload) != string(results[i].Payload) {
			t.Fatalf("job %d: cache hit bytes differ", i)
		}
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
		jobs[i] = Job{Spec: spec, Run: func() ([]byte, error) {
			if i == 2 {
				panic("wedged cell")
			}
			return []byte(`{}`), nil
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
		jobs[i] = Job{Spec: spec, Run: func() ([]byte, error) { return []byte(`{}`), nil }}
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
	got, ok := c.Get(spec)
	if !ok {
		t.Fatal("entry with the retired field missed")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %s != %s", got, payload)
	}
	if w := c.Warnings(); len(w) != 0 {
		t.Fatalf("unexpected warnings: %v", w)
	}
}
