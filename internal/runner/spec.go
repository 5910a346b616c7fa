// Package runner is the host-parallel experiment orchestrator: it turns
// the bench layer's figure sweeps into independent jobs (one
// deterministic simulated-machine build+run per experiment cell),
// hands them out in submission order to a worker pool sized to the
// host, and memoizes each cell's result in a content-addressed on-disk
// cache so unchanged figures re-render instantly and interrupted
// `-exp all` runs resume where they stopped.
//
// Three properties matter and are preserved by construction:
//
//   - Determinism: each job builds its own sim.Machine from its own Spec,
//     so cells share no state and a cell's payload is a pure function of
//     its Spec. Results are merged in submission order, making parallel
//     output byte-identical to serial output.
//   - Isolation: a panicking cell is recovered and reported as that
//     cell's error; it never takes the sweep down.
//   - Honesty: cache keys include a code-version salt, so results
//     computed by older code are invalidated rather than silently reused.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
)

// CacheVersion is the code-version salt folded into every cache key.
// Bump it whenever a change anywhere in the simulator or the experiment
// definitions can alter results: old cache entries then miss (and are
// eventually overwritten) instead of serving stale bytes.
const CacheVersion = "rocktm-cache-v1"

// Spec canonically identifies one experiment cell: everything that
// determines the cell's result must appear here (directly or via the sim
// config digest), because the cache treats equal Specs as equal results.
type Spec struct {
	// Experiment is the short experiment name ("fig1a", "msf", ...).
	Experiment string `json:"experiment"`
	// System is the synchronization system / curve within the experiment
	// ("phtm", "stm-tl2", "msf-opt-le", ...).
	System string `json:"system"`
	// Threads is the simulated thread (strand) count of the cell.
	Threads int `json:"threads"`
	// Ops is the per-thread operation count (0 when not applicable).
	Ops int `json:"ops"`
	// Seed is the experiment seed.
	Seed uint64 `json:"seed"`
	// SimDigest is the simulated-machine configuration digest
	// (sim.Config.Digest): cache safety against config drift.
	SimDigest string `json:"sim_digest"`
	// Params carries any extra cell parameters (key range, operation mix,
	// grid dimensions, chip mode, ...) in canonical (sorted) order. The
	// workload layer contributes its knobs here too — "skew" and "arrival"
	// in the canonical workload.Keys/Arrival string forms, and "lat" when
	// latency capture is on — so skewed, open-loop and latency-carrying
	// cells never alias their plain counterparts in the cache.
	Params map[string]string `json:"params,omitempty"`
}

// Key returns the canonical string form of the spec. Params are emitted
// in sorted key order so two equal specs always produce the same key.
func (s Spec) Key() string {
	b := make([]byte, 0, 256) // on the stack: every catalogue key fits
	b = append(b, "exp="...)
	b = append(b, s.Experiment...)
	b = append(b, " sys="...)
	b = append(b, s.System...)
	b = append(b, " threads="...)
	b = strconv.AppendInt(b, int64(s.Threads), 10)
	b = append(b, " ops="...)
	b = strconv.AppendInt(b, int64(s.Ops), 10)
	b = append(b, " seed="...)
	b = strconv.AppendUint(b, s.Seed, 10)
	b = append(b, " sim="...)
	b = append(b, s.SimDigest...)
	if len(s.Params) > 0 {
		keys := make([]string, 0, len(s.Params))
		for k := range s.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = append(b, ' ')
			b = append(b, k...)
			b = append(b, '=')
			b = append(b, s.Params[k]...)
		}
	}
	return string(b)
}

// Hash returns the content address of the spec under the given
// code-version salt: hex(sha256(salt || 0 || key)).
func (s Spec) Hash(salt string) string {
	return hashKey(salt, s.Key())
}

// hashKey is Hash for a key already built, so the cache builds each
// lookup's key once for both the file name and the entry check.
func hashKey(salt, key string) string {
	h := sha256.New()
	h.Write([]byte(salt))
	h.Write([]byte{0})
	h.Write([]byte(key))
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// String renders the spec compactly for progress lines and errors.
func (s Spec) String() string {
	return fmt.Sprintf("%s/%s@%dT", s.Experiment, s.System, s.Threads)
}
