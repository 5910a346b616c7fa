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
// compute function producing its canonical JSON payload. Run must be
// self-contained (build its own machine, share nothing): the pool may
// invoke it on any goroutine, concurrently with other jobs.
type Job struct {
	Spec Spec
	Run  func() ([]byte, error)
}

// Result is the outcome of one job, in submission order.
type Result struct {
	Payload []byte
	Err     error
	// Cached reports whether the payload came from the result cache.
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

// runJob resolves one job: cache hit, or compute + store.
func (p *Pool) runJob(job Job) Result {
	if p.Cache != nil {
		if payload, ok := p.Cache.Get(job.Spec); ok {
			return Result{Payload: payload, Cached: true}
		}
	}
	payload, err := execute(job)
	if err != nil {
		return Result{Err: fmt.Errorf("%s: %w", job.Spec, err)}
	}
	if p.Cache != nil {
		if err := p.Cache.Put(job.Spec, payload); err != nil {
			// A full disk must not fail the sweep; the result is in hand.
			p.Cache.warn(err.Error())
		}
	}
	return Result{Payload: payload}
}

// execute runs the compute function, turning a panic into its error.
func execute(job Job) (payload []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return job.Run()
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
// The typed value always takes one trip through canonical JSON — for
// fresh computes and cache hits alike — so a figure rendered from a
// cache hit is byte-identical to one rendered from a fresh run (Go's
// float64 JSON encoding round-trips exactly).
func RunCells[T any](p *Pool, cells []Cell[T]) ([]T, error) {
	if p == nil {
		p = &Pool{Workers: 1}
	}
	jobs := make([]Job, len(cells))
	for i, c := range cells {
		compute := c.Compute
		jobs[i] = Job{Spec: c.Spec, Run: func() ([]byte, error) {
			v, err := compute()
			if err != nil {
				return nil, err
			}
			return json.Marshal(v)
		}}
	}
	out := make([]T, len(cells))
	var errs []error
	for i, res := range p.RunAll(jobs) {
		if res.Err != nil {
			errs = append(errs, res.Err)
			continue
		}
		if err := json.Unmarshal(res.Payload, &out[i]); err != nil {
			errs = append(errs, fmt.Errorf("%s: decode cached payload: %w", cells[i].Spec, err))
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}
