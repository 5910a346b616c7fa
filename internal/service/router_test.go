package service

import "testing"

// Every router must map every key of the keyspace into [0, n) and be a
// pure function of the key.
func TestRoutersCoverAndDeterministic(t *testing.T) {
	const n, keyRange = 4, 1024
	for _, name := range RouterNames() {
		r, err := NewRouter(name, n, keyRange)
		if err != nil {
			t.Fatalf("NewRouter(%q): %v", name, err)
		}
		if r.Shards() != n {
			t.Fatalf("%s: Shards() = %d, want %d", name, r.Shards(), n)
		}
		counts := make([]int, n)
		for k := uint64(0); k < keyRange; k++ {
			s := r.Shard(k)
			if s < 0 || s >= n {
				t.Fatalf("%s: Shard(%d) = %d out of range", name, k, s)
			}
			if again := r.Shard(k); again != s {
				t.Fatalf("%s: Shard(%d) not deterministic: %d then %d", name, k, s, again)
			}
			counts[s]++
		}
		for s, c := range counts {
			if c == 0 {
				t.Errorf("%s: shard %d owns no keys", name, s)
			}
		}
	}
}

// The hot-aware router must spread the hottest keys (the lowest key
// values under the zipfian generator) across ALL shards, while the plain
// hash may concentrate them anywhere.
func TestHotAwareSpreadsHotKeys(t *testing.T) {
	const n = 4
	r := NewHotAwareMap(n, 4*n)
	seen := map[int]bool{}
	for k := uint64(0); k < uint64(n); k++ {
		seen[r.Shard(k)] = true
	}
	if len(seen) != n {
		t.Fatalf("first %d hot keys landed on %d shards, want all %d", n, len(seen), n)
	}
	// Cold keys route identically to the plain hash.
	h := NewHashMap(n)
	for k := uint64(4 * n); k < 4*n+100; k++ {
		if r.Shard(k) != h.Shard(k) {
			t.Fatalf("cold key %d: hot-aware %d != hash %d", k, r.Shard(k), h.Shard(k))
		}
	}
}

// Router names are canonical (they enter runner cache keys) and unknown
// names are rejected.
func TestRouterNames(t *testing.T) {
	want := map[string]string{"hash": "hash", "hot": "hot:8"}
	for _, fam := range RouterNames() {
		r, err := NewRouter(fam, 2, 64)
		if err != nil {
			t.Fatalf("NewRouter(%q): %v", fam, err)
		}
		if r.Name() != want[fam] {
			t.Errorf("router %q Name() = %q, want %q", fam, r.Name(), want[fam])
		}
	}
	if _, err := NewRouter("nope", 2, 64); err == nil {
		t.Fatal("unknown router accepted")
	}
}
