package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// DefaultCacheDir is where `figures` and `msf` keep cached cell results.
const DefaultCacheDir = ".rockcache"

// cacheEntry is the on-disk form of one memoized cell result.
type cacheEntry struct {
	// Version is the code-version salt the entry was computed under.
	Version string `json:"version"`
	// Key is Spec.Key() — stored so a hash collision (or a hand-edited
	// file) is detected instead of returning the wrong cell's payload.
	Key string `json:"key"`
	// Spec is stored for human inspection of the cache directory.
	Spec Spec `json:"spec"`
	// Payload is the cell's canonical JSON result.
	Payload json.RawMessage `json:"payload"`
	// Created is when the entry was written (informational).
	Created time.Time `json:"created"`
}

// Cache is the content-addressed result store: one JSON file per cell
// under dir, named by the spec's salted hash. All methods are safe for
// concurrent use by pool workers.
type Cache struct {
	dir  string
	salt string

	mu    sync.Mutex
	warns []string
}

// OpenCache opens (creating if needed) a cache directory. salt is the
// code-version salt; pass CacheVersion outside of tests.
func OpenCache(dir, salt string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	return &Cache{dir: dir, salt: salt}, nil
}

func (c *Cache) path(spec Spec) string {
	return filepath.Join(c.dir, spec.Hash(c.salt)+".json")
}

// Get returns the cached payload for spec. A missing, corrupted,
// stale-version or mismatched entry is a miss; corruption and mismatches
// additionally record a warning (the sweep recomputes and overwrites,
// never crashes). Fields an entry carries beyond cacheEntry's are
// ignored, so entries written by older code of the same CacheVersion
// still hit.
func (c *Cache) Get(spec Spec) (payload []byte, ok bool) {
	raw, err := os.ReadFile(c.path(spec))
	if err != nil {
		return nil, false // plain miss
	}
	var e cacheEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		c.warn(fmt.Sprintf("cache: corrupted entry for %s (%v); recomputing", spec, err))
		return nil, false
	}
	if e.Version != c.salt {
		// Stale code version: silently recompute (the common case after
		// any simulator change) — the fresh Put overwrites the file.
		return nil, false
	}
	if e.Key != spec.Key() {
		c.warn(fmt.Sprintf("cache: key mismatch for %s (hash collision or edited file); recomputing", spec))
		return nil, false
	}
	if len(e.Payload) == 0 {
		c.warn(fmt.Sprintf("cache: empty payload for %s; recomputing", spec))
		return nil, false
	}
	return e.Payload, true
}

// Put stores a freshly computed payload. Writes are atomic
// (temp file + rename) so a crashed run never leaves a truncated entry.
func (c *Cache) Put(spec Spec, payload []byte) error {
	e := cacheEntry{
		Version: c.salt,
		Key:     spec.Key(),
		Spec:    spec,
		Payload: payload,
		Created: time.Now().UTC(),
	}
	// Compact on purpose: MarshalIndent would re-indent the embedded
	// payload, and Get must hand back the exact bytes Put received so
	// cache hits are byte-faithful to fresh computes.
	raw, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("runner: cache encode %s: %w", spec, err)
	}
	final := c.path(spec)
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("runner: cache write %s: %w", spec, err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache write %s: %w", spec, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache write %s: %w", spec, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache write %s: %w", spec, err)
	}
	return nil
}

func (c *Cache) warn(msg string) {
	c.mu.Lock()
	c.warns = append(c.warns, msg)
	c.mu.Unlock()
}

// Warnings drains the accumulated cache warnings (corrupted entries,
// key mismatches) in arrival order.
func (c *Cache) Warnings() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.warns
	c.warns = nil
	return out
}
