package service

import "fmt"

// ShardMap is the pluggable request router: it deterministically assigns
// every key of the global keyspace to one shard. Implementations must be
// pure functions of the key (no state mutated per call), because the
// router is consulted once per request leg on the fleet's hot path and
// the same mapping is reused to place the prepopulated keys.
type ShardMap interface {
	// Name is the canonical router name ("hash", "hot:K"); it
	// enters the runner cache key, so two routers that can disagree on any
	// key must render differently.
	Name() string
	// Shard maps a key to a shard index in [0, Shards()).
	Shard(key uint64) int
	// Shards is the shard count the map routes over.
	Shards() int
}

// hashMap spreads keys by multiplicative hash — the classic "uniform"
// router. Hot keys land wherever the hash sends them, so a zipfian storm
// concentrates on whichever shard owns rank 0.
type hashMap struct{ n int }

// NewHashMap routes by multiplicative hash over n shards.
func NewHashMap(n int) ShardMap { return hashMap{mustShards(n)} }

func (h hashMap) Name() string { return "hash" }
func (h hashMap) Shards() int  { return h.n }
func (h hashMap) Shard(key uint64) int {
	key *= 0x9e3779b97f4a7c15
	return int((key >> 40) % uint64(h.n))
}

// hotAwareMap is the hot-shard mitigation router: the top hotKeys keys of
// the keyspace — which under the workload layer's zipfian generator are
// exactly the lowest key values (rank r maps to key Offset+r) — are split
// round-robin across all shards, so no single shard owns the whole storm;
// every other key routes through the plain hash.
type hotAwareMap struct {
	n       int
	hotKeys uint64
	base    hashMap
}

// NewHotAwareMap splits the hotKeys hottest keys round-robin and hashes
// the rest over n shards.
func NewHotAwareMap(n, hotKeys int) ShardMap {
	if hotKeys < 0 {
		panic("service: hot-aware router needs hotKeys >= 0")
	}
	return hotAwareMap{n: mustShards(n), hotKeys: uint64(hotKeys), base: hashMap{n}}
}

func (h hotAwareMap) Name() string { return fmt.Sprintf("hot:%d", h.hotKeys) }
func (h hotAwareMap) Shards() int  { return h.n }
func (h hotAwareMap) Shard(key uint64) int {
	if key < h.hotKeys {
		return int(key % uint64(h.n))
	}
	return h.base.Shard(key)
}

// RouterNames lists the canonical router family names accepted by
// NewRouter, in experiment order.
func RouterNames() []string { return []string{"hash", "hot"} }

// NewRouter builds a router by family name over n shards of a keyRange
// keyspace. The "hot" family splits the top 4*n keys (a few hot ranks per
// shard) round-robin. Neither family depends on keyRange.
func NewRouter(name string, n, keyRange int) (ShardMap, error) {
	switch name {
	case "hash":
		return NewHashMap(n), nil
	case "hot":
		return NewHotAwareMap(n, 4*n), nil
	}
	return nil, fmt.Errorf("service: unknown router %q (known: %v)", name, RouterNames())
}

func mustShards(n int) int {
	if n <= 0 {
		panic("service: shard count must be positive")
	}
	return n
}
