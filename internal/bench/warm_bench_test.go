package bench

import (
	"fmt"
	"io"
	"testing"

	"rocktm/internal/runner"
)

// warmRerender fills a result cache in dir with fig2a and fleet at a
// small scale, one worker, and returns one warm pass over it with the
// number of cells a pass serves. A pass is the warm-rerender path: it
// builds every cell's spec, serves each cell from the cache and renders
// both figures, and it simulates nothing. It fails if any cell missed
// the cache or any entry drew a warning.
func warmRerender(dir string) (pass func() error, cells int, err error) {
	cache, err := runner.OpenCache(dir, runner.CacheVersion)
	if err != nil {
		return nil, 0, err
	}
	var last runner.Progress
	pool := &runner.Pool{Workers: 1, Cache: cache, OnProgress: func(pr runner.Progress) { last = pr }}
	o := Options{Threads: []int{1, 2}, OpsPerThread: 20, Seed: 1, Runner: pool}
	render := func() error {
		for _, figure := range []func(Options) (*Figure, error){Fig2a, FleetFigure} {
			fig, err := figure(o)
			if err != nil {
				return err
			}
			fig.Render(io.Discard)
			if err := fig.JSON(io.Discard); err != nil {
				return err
			}
		}
		return nil
	}
	if err := render(); err != nil { // the cold pass fills the cache
		return nil, 0, err
	}
	cells = last.Done
	pass = func() error {
		before := last
		if err := render(); err != nil {
			return err
		}
		if served := last.Cached - before.Cached; served != cells {
			return fmt.Errorf("warm pass served %d of %d cells from the cache", served, cells)
		}
		if w := cache.Warnings(); len(w) != 0 {
			return fmt.Errorf("cache warnings: %v", w)
		}
		return nil
	}
	return pass, cells, nil
}

// BenchmarkWarmRerender times one warm pass: fig2a and fleet re-rendered
// from a result cache filled during set-up (see warmRerender).
func BenchmarkWarmRerender(b *testing.B) {
	pass, cells, err := warmRerender(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pass(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells), "cells/op")
}
