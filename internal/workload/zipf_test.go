package workload

import (
	"math"
	"sync"
	"testing"
)

// zipfBits returns every field of z as raw bits, so two parameter sets
// compare bit for bit.
func zipfBits(z zipfParams) [6]uint64 {
	return [6]uint64{uint64(z.n), math.Float64bits(z.theta), math.Float64bits(z.alpha),
		math.Float64bits(z.zetan), math.Float64bits(z.eta), math.Float64bits(z.half)}
}

// The memoized constants must be the ones computing them afresh gives, bit
// for bit: a cell's key stream depends on every bit of them.
func TestZipfMemoMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		n     int
		theta float64
	}{{2, 0.5}, {512, 0.9}, {1024, 0.99}, {4096, 0.99}, {1 << 16, 0.2}} {
		first, again := newZipf(tc.n, tc.theta), newZipf(tc.n, tc.theta)
		fresh := computeZipf(tc.n, tc.theta)
		if zipfBits(first) != zipfBits(fresh) || zipfBits(again) != zipfBits(fresh) {
			t.Errorf("zipf(%d, %g): memoized %+v and %+v, fresh %+v", tc.n, tc.theta, first, again, fresh)
		}
	}
}

// Runner workers compile specs concurrently, so the memo is shared between
// goroutines: every Compile must see the fresh constants of its own
// (n, theta), whichever goroutine computed them first.
func TestZipfMemoConcurrentCompile(t *testing.T) {
	const workers = 8
	ranges := []int{300, 700, 1500}
	thetas := []float64{0.31, 0.67, 0.93}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at a different (n, theta) and visits all.
			pairs := len(ranges) * len(thetas)
			for j := range pairs {
				i := (j + w) % pairs
				n, theta := ranges[i%len(ranges)], thetas[i/len(ranges)]
				c, err := Spec{Ops: []Op{{Name: "get"}}, Keys: Zipfian(n, theta)}.Compile()
				if err != nil {
					t.Error(err)
					return
				}
				if zipfBits(c.zipf) != zipfBits(computeZipf(n, theta)) {
					t.Errorf("Compile of zipf(%d, %g) got %+v", n, theta, c.zipf)
				}
			}
		}(w)
	}
	wg.Wait()
}
