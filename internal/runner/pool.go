package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
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
	// HostSeconds is the wall-clock compute cost (the original compute's
	// cost for cache hits).
	HostSeconds float64
}

// Progress is a point-in-time view of a sweep, delivered to OnProgress
// after every job completion.
type Progress struct {
	Total, Done, Cached, Failed int
	// ETASeconds estimates the remaining wall-clock time from the cost
	// model's view of the not-yet-finished jobs divided across workers.
	ETASeconds float64
	// Last is the spec of the job that just finished.
	Last Spec
}

// Pool executes jobs on a bounded set of host workers with
// longest-expected-first scheduling, per-job panic recovery and timeout,
// and optional result caching. The zero value runs serially without a
// cache; set fields before the first RunAll.
type Pool struct {
	// Workers is the concurrency bound; <=0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, memoizes job payloads by Spec hash.
	Cache *Cache
	// Costs, when non-nil, orders jobs longest-expected-first and learns
	// from every completed job. Nil falls back to a work heuristic.
	Costs *CostModel
	// Timeout bounds one job's compute time; an over-budget cell is
	// reported as that cell's error while the sweep continues. The wedged
	// goroutine is abandoned (the simulator has no preemption hook), so
	// timeouts are a last-resort isolation, not routine control flow.
	// 0 disables.
	Timeout time.Duration
	// OnProgress, when non-nil, is called after each job completes
	// (from worker goroutines; it must be safe for concurrent use).
	OnProgress func(Progress)

	mu        sync.Mutex
	total     int
	done      int
	cached    int
	failed    int
	remaining float64 // sum of estimates of unfinished jobs
}

// workers resolves the effective worker count.
func (p *Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (p *Pool) etaLocked() float64 {
	if p.remaining <= 0 {
		return 0
	}
	return p.remaining / float64(p.workers())
}

func (p *Pool) estimate(spec Spec) float64 {
	if p.Costs != nil {
		return p.Costs.Estimate(spec)
	}
	return NewCostModel().Estimate(spec)
}

// RunAll executes the jobs and returns their results indexed exactly as
// submitted, regardless of scheduling: callers assemble output in
// submission order, which is what makes parallel runs byte-identical to
// serial ones. Individual failures land in their Result slot; RunAll
// itself never panics because of a job.
func (p *Pool) RunAll(jobs []Job) []Result {
	n := len(jobs)
	results := make([]Result, n)
	if n == 0 {
		return results
	}

	estimates := make([]float64, n)
	var sum float64
	for i, j := range jobs {
		estimates[i] = p.estimate(j.Spec)
		sum += estimates[i]
	}
	p.mu.Lock()
	p.total += n
	p.remaining += sum
	p.mu.Unlock()

	// Longest-expected-first (LPT) order, ties broken by submission index
	// so the schedule itself is deterministic.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort: n is small, stability trivial
		for j := i; j > 0 && (estimates[order[j]] > estimates[order[j-1]] ||
			(estimates[order[j]] == estimates[order[j-1]] && order[j] < order[j-1])); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	workers := p.workers()
	if workers > n {
		workers = n
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				results[idx] = p.runJob(jobs[idx])
				p.finishJob(jobs[idx].Spec, estimates[idx], results[idx])
			}
		}()
	}
	for _, idx := range order {
		idxCh <- idx
	}
	close(idxCh)
	wg.Wait()
	return results
}

// runJob resolves one job: cache hit, or compute + learn + store.
func (p *Pool) runJob(job Job) Result {
	if p.Cache != nil {
		if payload, secs, ok := p.Cache.Get(job.Spec); ok {
			return Result{Payload: payload, Cached: true, HostSeconds: secs}
		}
	}
	payload, secs, err := p.execute(job)
	if err != nil {
		return Result{Err: fmt.Errorf("%s: %w", job.Spec, err), HostSeconds: secs}
	}
	if p.Costs != nil {
		p.Costs.Observe(job.Spec, secs)
	}
	if p.Cache != nil {
		if err := p.Cache.Put(job.Spec, payload, secs); err != nil {
			// A full disk must not fail the sweep; the result is in hand.
			p.Cache.warn(err.Error())
		}
	}
	return Result{Payload: payload, HostSeconds: secs}
}

// execute runs the compute function with panic recovery and the
// per-job timeout.
func (p *Pool) execute(job Job) (payload []byte, hostSeconds float64, err error) {
	type outcome struct {
		payload []byte
		err     error
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("cell panicked: %v\n%s", r, debug.Stack())}
			}
		}()
		pl, err := job.Run()
		ch <- outcome{payload: pl, err: err}
	}()
	if p.Timeout > 0 {
		timer := time.NewTimer(p.Timeout)
		defer timer.Stop()
		select {
		case o := <-ch:
			return o.payload, time.Since(start).Seconds(), o.err
		case <-timer.C:
			return nil, time.Since(start).Seconds(),
				fmt.Errorf("cell exceeded %s timeout (wedged cell isolated; sweep continues)", p.Timeout)
		}
	}
	o := <-ch
	return o.payload, time.Since(start).Seconds(), o.err
}

// finishJob updates sweep counters and fires the progress callback.
func (p *Pool) finishJob(spec Spec, estimate float64, res Result) {
	p.mu.Lock()
	p.done++
	if res.Cached {
		p.cached++
	}
	if res.Err != nil {
		p.failed++
	}
	p.remaining -= estimate
	if p.remaining < 0 {
		p.remaining = 0
	}
	prog := Progress{
		Total:      p.total,
		Done:       p.done,
		Cached:     p.cached,
		Failed:     p.failed,
		ETASeconds: p.etaLocked(),
		Last:       spec,
	}
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
// values in submission order. A nil pool runs the cells inline (serial,
// uncached) — the bench layer's fallback path.
//
// With a pool, every cell runs to completion (successes are cached) even
// when some fail, and the joined failures are returned at the end: an
// interrupted or partially failing sweep is resumable because the
// completed cells' results are already on disk.
//
// The typed value always takes one trip through canonical JSON — for
// fresh computes and cache hits alike — so a figure rendered from a
// cache hit is byte-identical to one rendered from a fresh run (Go's
// float64 JSON encoding round-trips exactly).
func RunCells[T any](p *Pool, cells []Cell[T]) ([]T, error) {
	out := make([]T, len(cells))
	roundTrip := func(v T, i int) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("%s: encode: %w", cells[i].Spec, err)
		}
		return json.Unmarshal(raw, &out[i])
	}
	if p == nil {
		for i, c := range cells {
			v, err := c.Compute()
			if err != nil {
				return nil, err
			}
			if err := roundTrip(v, i); err != nil {
				return nil, err
			}
		}
		return out, nil
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
