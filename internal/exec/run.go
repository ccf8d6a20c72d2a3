package exec

import (
	"context"
	"fmt"

	"innetcc/internal/directory"
	"innetcc/internal/fault"
	"innetcc/internal/metrics"
	"innetcc/internal/protocol"
	"innetcc/internal/stats"
	"innetcc/internal/trace"
)

// DefaultSegmentCycles is the pause granularity of segmented runs: how many
// simulated cycles pass between cancellation checks and progress
// callbacks. Pausing is free in terms of determinism (the step sequence is
// identical to an uninterrupted run; see protocol.RunSegment), so the value
// only trades callback overhead against responsiveness.
const DefaultSegmentCycles = 1 << 20

// Progress is one mid-run observation of a job, delivered between
// simulation segments.
type Progress struct {
	// Cycle is the simulated cycle reached so far.
	Cycle int64 `json:"cycle"`
	// Attempt is the current transient-retry epoch (0-based).
	Attempt int `json:"attempt"`
}

// RunOptions controls a segmented RunJob execution. The zero value runs the
// job to completion exactly like the worker pool always has: no
// cancellation, no progress, starting at attempt 0.
type RunOptions struct {
	// Ctx, when non-nil, is checked between segments; once canceled the
	// run stops promptly and the Result comes back with Canceled set.
	Ctx context.Context

	// SegmentCycles is the pause granularity (DefaultSegmentCycles when
	// <= 0).
	SegmentCycles int64

	// Progress, when set, is called after every paused segment.
	Progress func(Progress)

	// StartAttempt is the first transient-retry attempt to run (clamped to
	// the job's Retries). Every attempt derives its seed from the job spec
	// and its own index, so a restarted job that already saw attempts
	// 0..N-1 fail transiently skips them and still gets the result a fresh
	// run would.
	StartAttempt int
}

// RunJob executes one job — cacheless, poolless — with segmented execution:
// the transient-retry loop of the worker pool, plus cancellation and
// progress streaming per RunOptions. Results are byte-identical to Pool.Run
// for the same spec at every segment size, because pausing never changes
// the kernel's step sequence.
func RunJob(job Job, opt RunOptions) Result {
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	var res Result
	for attempt := max(0, min(opt.StartAttempt, job.Retries)); ; attempt++ {
		res = runAttempt(job, attempt, opt)
		res.Attempts = attempt + 1
		if res.Canceled || !res.Failed() || !res.Transient || attempt >= job.Retries {
			break
		}
	}
	res.Key = job.Key
	return res
}

// simulate runs one attempt of the job uninterrupted — the pre-segmentation
// entry point, kept for the attempt-level determinism tests.
func simulate(job Job, attempt int) Result {
	return runAttempt(job, attempt, RunOptions{Ctx: context.Background()})
}

// runAttempt runs a single attempt of the job in segments. Panics anywhere
// in the protocol or network stack are recovered into the Result so one
// diverging configuration cannot take down a batch or the serving layer.
func runAttempt(job Job, attempt int, opt RunOptions) (res Result) {
	col := collectorFor(job.Metrics)
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Sprintf("panic: %v", r), Metrics: metricsOut(col, true)}
		}
	}()

	m, hops, errRes := buildAttempt(job, attempt, col)
	if errRes != nil {
		return *errRes
	}
	limit := m.Kernel.Now() + job.maxCycles()
	seg := opt.SegmentCycles
	if seg <= 0 {
		seg = DefaultSegmentCycles
	}

	var runErr error
	for {
		if err := opt.Ctx.Err(); err != nil {
			return Result{
				Err:      "exec: canceled: " + err.Error(),
				Canceled: true,
				Cycles:   m.Kernel.Now(),
				Metrics:  metricsOut(col, false),
			}
		}
		done, err := m.RunSegment(m.Kernel.Now()+seg, limit)
		if done {
			runErr = err
			break
		}
		if opt.Progress != nil {
			opt.Progress(Progress{Cycle: m.Kernel.Now(), Attempt: attempt})
		}
	}
	if runErr != nil {
		return Result{
			Err:       fmt.Sprintf("%s %s: %v", job.Profile.Name, job.Engine, runErr),
			Transient: fault.Transient(runErr),
			Metrics:   metricsOut(col, true),
		}
	}
	if opt.Progress != nil {
		opt.Progress(Progress{Cycle: m.Kernel.Now(), Attempt: attempt})
	}

	res = Result{
		Cycles:        m.Kernel.Now(),
		LocalHits:     m.LocalHits,
		Read:          dist(&m.Lat.Read, m.ReadSamples),
		Write:         dist(&m.Lat.Write, m.WriteSamples),
		DeadlockRead:  dist(&m.Lat.DeadlockRead, nil),
		DeadlockWrite: dist(&m.Lat.DeadlockWrite, nil),
		Hops:          hops,
		Metrics:       metricsOut(col, job.Metrics.FlightDump),
	}
	if names := m.Counters.Names(); len(names) > 0 {
		res.Counters = make(map[string]int64, len(names))
		for _, n := range names {
			res.Counters[n] = m.Counters.Get(n)
		}
	}
	return res
}

// buildAttempt constructs the machine for one attempt of the job: seed
// derivation, the trace size check, fault plan, trace generation, engine
// wiring and the optional hop-study recorder. Attempt 0 uses the job seed;
// retry attempts derive a sub-seed from it, so every attempt is
// reproducible in isolation. A non-nil error Result means the job cannot
// run.
func buildAttempt(job Job, attempt int, col *metrics.Collector) (*protocol.Machine, *HopAgg, *Result) {
	seed := job.Seed()
	if attempt > 0 {
		seed = DeriveSeed(seed, fmt.Sprintf("retry/%d", attempt))
	}
	cfg := job.Config
	cfg.Seed = seed
	if err := trace.CheckSize(cfg.Nodes(), job.Accesses); err != nil {
		return nil, nil, &Result{Err: err.Error()}
	}
	var plan *fault.Plan
	if job.Faults != "" {
		fspec, err := fault.ParseSpec(job.Faults)
		if err != nil {
			return nil, nil, &Result{Err: "exec: bad fault spec: " + err.Error()}
		}
		plan = &fault.Plan{Spec: fspec, Seed: DeriveSeed(seed, "fault")}
	}
	m, err := protocol.Build(protocol.Spec{
		Config:  cfg,
		Trace:   trace.Generate(job.Profile, cfg.Nodes(), job.Accesses, seed),
		Think:   job.Profile.Think,
		Engine:  job.Engine,
		Metrics: col,
		Faults:  plan,
	})
	if err != nil {
		return nil, nil, &Result{Err: err.Error(), Metrics: metricsOut(col, true)}
	}
	m.ReadSamples = &stats.Sampler{}
	m.WriteSamples = &stats.Sampler{}

	var hops *HopAgg
	if job.CollectHops {
		e, ok := m.Engine().(*directory.Engine)
		if !ok {
			return nil, nil, &Result{Err: fmt.Sprintf("exec: CollectHops requires the directory engine, got %s", job.Engine)}
		}
		hops = &HopAgg{}
		e.HopRecorder = func(write bool, base, ideal int) {
			if base == 0 {
				return
			}
			if write {
				hops.WriteBase += float64(base)
				hops.WriteIdeal += float64(ideal)
				hops.Writes++
			} else {
				hops.ReadBase += float64(base)
				hops.ReadIdeal += float64(ideal)
				hops.Reads++
			}
		}
	}
	return m, hops, nil
}

// dist folds an accumulator (and, when available, its sample set for
// percentiles) into the serializable Dist form. Summarize extracts all
// three percentiles off one sort of the sample vector.
func dist(a *stats.Accumulator, s *stats.Sampler) Dist {
	d := Dist{N: a.N, Sum: a.Sum, Min: a.MinV, Max: a.MaxV}
	if s != nil && s.N() > 0 {
		sum := s.Summarize()
		d.P50, d.P95, d.P99 = sum.P50, sum.P95, sum.P99
	}
	return d
}
