package exec

import (
	"context"
	"runtime"
	"sync"

	// Registers the tree engine's builder with protocol.Build. The
	// directory package (imported by the runner for the hop-study wiring)
	// does the same for the baseline engine.
	_ "innetcc/internal/treecc"
)

// Pool runs batches of jobs across worker goroutines. The zero value is
// usable: all cores, no cache.
//
// Every job not already in the cache is simulated, so two jobs with one
// spec in a batch both simulate and store the same bytes. The experiment
// batches and the examples hold distinct specs.
type Pool struct {
	// Workers is the parallelism level; <= 0 means GOMAXPROCS.
	Workers int

	// Cache, when non-nil, serves and stores results on disk keyed by
	// Job.Hash.
	Cache *Cache
}

// Run executes all jobs and returns their results in submission order.
// Each job is isolated: a simulation error, an exceeded cycle bound, or a
// panic fails only that job's Result (Err set), never the batch. Because
// every job is a pure function of its spec and results are collected by
// index, the returned slice — and anything printed from it in order — is
// identical at every parallelism level.
//
// When Workers <= 0 the pool defaults to one worker per core.
func (p *Pool) Run(jobs []Job) []Result {
	return p.RunContext(context.Background(), jobs)
}

// RunContext is Run with cancellation: when ctx is canceled, in-flight
// simulations stop at the next segment boundary and come back with
// Canceled set (never cached), and queued jobs are returned canceled
// without simulating at all.
func (p *Pool) RunContext(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	fanOut(p.Workers, len(jobs), func(i int) {
		results[i] = p.runOne(ctx, jobs[i])
	})
	return results
}

// fanOut calls run(i) for every i in [0, n) across up to workers
// goroutines (<= 0 means GOMAXPROCS), handing out indices over one
// channel; with a single worker it runs them serially in order. Callers
// write results by index, so their output is independent of parallelism.
func fanOut(workers, n int, run func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// runOne executes a single job: cache lookup, simulation via the segmented
// runner, cache fill.
func (p *Pool) runOne(ctx context.Context, job Job) Result {
	if err := ctx.Err(); err != nil {
		return Result{Err: "exec: canceled: " + err.Error(), Canceled: true, Key: job.Key}
	}
	hash := job.Hash()
	if p.Cache != nil {
		if r, ok := p.Cache.Get(hash); ok {
			r.Key = job.Key
			r.Cached = true
			return r
		}
	}
	res := RunJob(job, RunOptions{Ctx: ctx})
	if p.Cache != nil && !res.Canceled {
		p.Cache.Put(hash, res)
	}
	return res
}
