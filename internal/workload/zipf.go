package workload

import (
	"math"
	"sync"
)

// zipfParams holds the precomputed constants of Gray et al.'s zipfian
// generator ("Quickly Generating Billion-Record Synthetic Databases",
// SIGMOD '94) — the same construction YCSB's ZipfianGenerator uses. The
// constants depend only on (n, theta), so they are computed once per
// process (newZipf) and shared read-only by every strand.
type zipfParams struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // 0.5^theta, the rank-1 threshold
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// zipfMemo maps a zipfKey to its zipfParams. Computing them makes n
// math.Pow calls, and every Compile of a zipfian Spec asks for them, once
// per experiment cell; runner workers compile concurrently.
var zipfMemo sync.Map

type zipfKey struct {
	n     int
	theta float64
}

// newZipf returns the constants for (n, theta), computing them on the
// process's first request.
func newZipf(n int, theta float64) zipfParams {
	return memoized(&zipfMemo, zipfKey{n, theta}, func() zipfParams { return computeZipf(n, theta) })
}

// memoized returns m's value for key, storing compute's result on the
// process's first request; concurrent first requests may each compute it,
// and all get the stored one.
func memoized[V any](m *sync.Map, key any, compute func() V) V {
	v, ok := m.Load(key)
	if !ok {
		v, _ = m.LoadOrStore(key, compute())
	}
	return v.(V)
}

func computeZipf(n int, theta float64) zipfParams {
	zetan := zeta(n, theta)
	zeta2 := zeta(2, theta)
	return zipfParams{
		n:     n,
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:  math.Pow(0.5, theta),
	}
}

// draw maps one uniform sample u in [0,1) to a zipf-distributed rank in
// [0, n): rank 0 is the hottest key. Pure float64 math on precomputed
// constants — deterministic for a given u.
func (z *zipfParams) draw(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	if k < 0 {
		k = 0
	}
	return k
}
