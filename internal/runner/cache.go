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

// file is the entry path for a key built by Spec.Key.
func (c *Cache) file(key string) string {
	return filepath.Join(c.dir, hashKey(c.salt, key)+".json")
}

// hit is what a lookup decodes from an entry: the two fields it checks
// and the payload, straight into the cell's type. The fields it does not
// name (spec, created, the retired host_seconds) are skipped, so entries
// written by older code of the same CacheVersion still hit.
type hit[T any] struct {
	Version string `json:"version"`
	Key     string `json:"key"`
	Payload *T     `json:"payload"`
}

// get serves spec from the cache into dst, at the cost of one file read
// and one JSON decode, and reports whether it did. A missing file or an
// entry of another code version is a silent miss. A key mismatch, and an
// entry that is not valid JSON or whose payload is missing, null or not
// decodable into T, is a miss with a warning: the sweep recomputes the
// cell and its Put overwrites the entry, so a bad entry is never trusted
// and never fatal. dst is written only on a hit.
func get[T any](c *Cache, spec Spec, dst *T) bool {
	key := spec.Key()
	raw, err := os.ReadFile(c.file(key))
	if err != nil {
		return false // plain miss
	}
	var e hit[T]
	if err := json.Unmarshal(raw, &e); err != nil {
		c.warn(fmt.Sprintf("cache: corrupted entry for %s (%v); recomputing", spec, err))
		return false
	}
	if e.Version != c.salt {
		// Stale code version: silently recompute (the common case after
		// any simulator change) — the fresh Put overwrites the file.
		return false
	}
	if e.Key != key {
		c.warn(fmt.Sprintf("cache: key mismatch for %s (hash collision or edited file); recomputing", spec))
		return false
	}
	if e.Payload == nil {
		c.warn(fmt.Sprintf("cache: corrupted entry for %s (payload missing or null); recomputing", spec))
		return false
	}
	*dst = *e.Payload
	return true
}

// Put stores a freshly computed payload. Writes are atomic
// (temp file + rename) so a crashed run never leaves a truncated entry.
func (c *Cache) Put(spec Spec, payload []byte) error {
	key := spec.Key()
	e := cacheEntry{
		Version: c.salt,
		Key:     key,
		Spec:    spec,
		Payload: payload,
		Created: time.Now().UTC(),
	}
	raw, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("runner: cache encode %s: %w", spec, err)
	}
	final := c.file(key)
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
