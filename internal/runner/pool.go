package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Job is one schedulable experiment cell: a Spec identifying it and a
// function that resolves it. Run serves the cell from the cache c when c
// is non-nil and holds it, and otherwise computes it (storing the result
// in c); it reports whether the cache served it. Run must be
// self-contained (build its own machine, share nothing): the pool may
// invoke it on any goroutine, concurrently with other jobs. Its result
// goes wherever Run puts it; RunCells gives each job its own slot.
type Job struct {
	Spec Spec
	Run  func(c *Cache) (cached bool, err error)
}

// Result is the outcome of one job, in submission order.
type Result struct {
	Err error
	// Cached reports whether the result came from the result cache.
	Cached bool
}

// Progress is a point-in-time view of a sweep, delivered to OnProgress
// after every job completion.
type Progress struct {
	Total, Done, Cached, Failed int
	// Last is the spec of the job that just finished.
	Last Spec
}

// Pool executes jobs on a bounded set of host workers, which take them
// in submission order, with per-job panic recovery and optional result
// caching. The zero value runs GOMAXPROCS workers without a cache; set
// fields before the first RunAll.
type Pool struct {
	// Workers is the concurrency bound; <=0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, memoizes job payloads by Spec hash.
	Cache *Cache
	// OnProgress, when non-nil, is called after each job completes
	// (from worker goroutines; it must be safe for concurrent use).
	OnProgress func(Progress)

	mu                          sync.Mutex
	total, done, cached, failed int
}

// RunAll executes the jobs and returns their results indexed exactly as
// submitted, regardless of which worker ran which job: callers assemble
// output in submission order, which is what makes parallel runs
// byte-identical to serial ones. Individual failures land in their
// Result slot; RunAll itself never panics because of a job.
func (p *Pool) RunAll(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	p.mu.Lock()
	p.total += len(jobs)
	p.mu.Unlock()

	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = p.runJob(jobs[i])
				p.finishJob(jobs[i].Spec, results[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// runJob resolves one job, turning a panic into its error.
func (p *Pool) runJob(job Job) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("%s: cell panicked: %v\n%s", job.Spec, r, debug.Stack())}
		}
	}()
	cached, err := job.Run(p.Cache)
	if err != nil {
		return Result{Err: fmt.Errorf("%s: %w", job.Spec, err)}
	}
	return Result{Cached: cached}
}

// finishJob updates sweep counters and fires the progress callback.
func (p *Pool) finishJob(spec Spec, res Result) {
	p.mu.Lock()
	p.done++
	if res.Cached {
		p.cached++
	}
	if res.Err != nil {
		p.failed++
	}
	prog := Progress{Total: p.total, Done: p.done, Cached: p.cached, Failed: p.failed, Last: spec}
	cb := p.OnProgress
	p.mu.Unlock()
	if cb != nil {
		cb(prog)
	}
}

// Cell couples a Spec with a typed compute function; RunCells handles
// the JSON encode/decode so experiment code never sees raw payloads.
type Cell[T any] struct {
	Spec    Spec
	Compute func() (T, error)
}

// RunCells executes typed cells through the pool and returns their
// values in submission order. A nil pool means one worker and no cache,
// so its cells run one at a time in submission order.
//
// Every cell runs to completion (successes are cached) even when some
// fail or panic, and the joined failures are returned at the end: an
// interrupted or partially failing sweep is resumable because the
// completed cells' results are already on disk.
//
// Each job fills its own slot of the result on its worker. A cache hit
// is one file read and one JSON decode, straight into the slot. A fresh
// compute takes one trip through canonical JSON — Marshal, Put, and
// Unmarshal into the slot — so a figure rendered from a cache hit is
// byte-identical to one rendered from a fresh run (Go's float64 JSON
// encoding round-trips exactly).
func RunCells[T any](p *Pool, cells []Cell[T]) ([]T, error) {
	if p == nil {
		p = &Pool{Workers: 1}
	}
	out := make([]T, len(cells))
	jobs := make([]Job, len(cells))
	for i, c := range cells {
		slot := &out[i]
		jobs[i] = Job{Spec: c.Spec, Run: func(cache *Cache) (bool, error) {
			if cache != nil && get(cache, c.Spec, slot) {
				return true, nil
			}
			v, err := c.Compute()
			if err != nil {
				return false, err
			}
			payload, err := json.Marshal(v)
			if err != nil {
				return false, err
			}
			if cache != nil {
				if err := cache.Put(c.Spec, payload); err != nil {
					// A full disk must not fail the sweep; the result is in hand.
					cache.warn(err.Error())
				}
			}
			return false, json.Unmarshal(payload, slot)
		}}
	}
	var errs []error
	for _, res := range p.RunAll(jobs) {
		if res.Err != nil {
			errs = append(errs, res.Err)
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}
