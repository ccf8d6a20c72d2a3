package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	// Registers the tree engine's builder with protocol.Build. The
	// directory package (imported by the runner for the hop-study wiring)
	// does the same for the baseline engine.
	_ "innetcc/internal/treecc"
)

// Pool runs batches of jobs across worker goroutines. The zero value is
// usable: all cores, no cache.
//
// Concurrent submissions of the same spec (equal Job.Hash) are deduplicated
// in-process: one worker simulates, everyone else waits and shares the
// result. Combined with the on-disk cache this gives exactly-once
// simulation per spec no matter how many callers race.
type Pool struct {
	// Workers is the parallelism level; <= 0 means GOMAXPROCS.
	Workers int

	// Cache, when non-nil, serves and stores results on disk keyed by
	// Job.Hash.
	Cache *Cache

	flightMu sync.Mutex
	flights  map[string]*flightCall

	sims atomic.Int64
}

// flightCall is one in-progress simulation shared by concurrent submitters
// of the same job hash.
type flightCall struct {
	done chan struct{}
	res  Result
}

// Simulations reports how many jobs this pool actually simulated (cache
// hits and deduplicated followers excluded).
func (p *Pool) Simulations() int64 { return p.sims.Load() }

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

// runOne executes a single job: cache lookup, in-process deduplication,
// simulation via the segmented runner, cache fill.
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

	p.flightMu.Lock()
	if p.flights == nil {
		p.flights = make(map[string]*flightCall)
	}
	if fc, ok := p.flights[hash]; ok {
		p.flightMu.Unlock()
		<-fc.done
		res := fc.res
		res.Key = job.Key
		res.Cached = true
		return res
	}
	fc := &flightCall{done: make(chan struct{})}
	p.flights[hash] = fc
	p.flightMu.Unlock()

	p.sims.Add(1)
	res := RunJob(job, RunOptions{Ctx: ctx})
	if p.Cache != nil && !res.Canceled && !res.Cached {
		p.Cache.Put(hash, res)
	}

	fc.res = res
	p.flightMu.Lock()
	delete(p.flights, hash)
	p.flightMu.Unlock()
	close(fc.done)
	return res
}
