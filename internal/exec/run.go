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
// simulated cycles pass between cancellation checks, progress callbacks and
// checkpoint opportunities. Pausing is free in terms of determinism (the
// step sequence is identical to an uninterrupted run; see
// protocol.RunSegment), so the value only trades callback overhead against
// responsiveness.
const DefaultSegmentCycles = 1 << 20

// Progress is one mid-run observation of a job, delivered between
// simulation segments. The series points are present only when the job's
// MetricsSpec enabled collection.
type Progress struct {
	// Cycle is the simulated cycle reached so far.
	Cycle int64 `json:"cycle"`
	// Attempt is the current transient-retry epoch (0-based).
	Attempt int `json:"attempt"`

	// Latest non-empty bucket of each collector time series.
	InFlight   *metrics.SeriesPoint `json:"inFlight,omitempty"`
	Occupancy  *metrics.SeriesPoint `json:"occupancy,omitempty"`
	QueueDepth *metrics.SeriesPoint `json:"queueDepth,omitempty"`
}

// RunOptions controls a segmented RunJob execution. The zero value runs the
// job to completion exactly like the worker pool always has: no
// cancellation, no progress, no checkpoints.
type RunOptions struct {
	// Ctx, when non-nil, is checked between segments; once canceled the
	// run stops promptly, a final checkpoint is written (when Checkpoint
	// is set) and the Result comes back with Canceled set.
	Ctx context.Context

	// SegmentCycles is the pause granularity (DefaultSegmentCycles when
	// <= 0).
	SegmentCycles int64

	// Progress, when set, is called after every paused segment.
	Progress func(Progress)

	// Checkpoint, when set together with a positive CheckpointEvery, is
	// called with a verified-replay snapshot roughly every
	// CheckpointEvery simulated cycles, and once more on cancellation.
	CheckpointEvery int64
	Checkpoint      func(Snapshot)

	// Resume, when non-nil, restores the run from a snapshot: the
	// matching attempt is replayed deterministically to Snapshot.Cycle
	// and the recomputed state digest is verified against the snapshot
	// before the run continues. A snapshot for a different job spec, or
	// one whose digest no longer matches (the binary's simulation
	// semantics drifted), is discarded and the job runs from scratch — a
	// checkpoint is an optimization, never a correctness dependency.
	Resume *Snapshot
}

// RunJob executes one job — cacheless, poolless — with segmented execution:
// the transient-retry loop of the worker pool, plus cancellation, progress
// streaming, periodic checkpoints and snapshot resume per RunOptions.
// Results are byte-identical to Pool.Run for the same spec at every segment
// size, because pausing never changes the kernel's step sequence.
func RunJob(job Job, opt RunOptions) Result {
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	resume := opt.Resume
	start := 0
	if resume != nil {
		if !resume.CompatibleWith(job) {
			resume = nil // snapshot of some other job, or stale retry budget
		} else {
			// Attempts 0..Attempt-1 already failed transiently before the
			// snapshot was taken; resume skips re-running them.
			start = resume.Attempt
		}
	}
	var res Result
	for attempt := start; ; attempt++ {
		res = runAttempt(job, attempt, opt, resume)
		resume = nil
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
	return runAttempt(job, attempt, RunOptions{Ctx: context.Background()}, nil)
}

// runAttempt runs a single attempt of the job in segments. Panics anywhere
// in the protocol or network stack are recovered into the Result so one
// diverging configuration cannot take down a batch or the serving layer.
func runAttempt(job Job, attempt int, opt RunOptions, resume *Snapshot) (res Result) {
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

	// Snapshot resume: replay deterministically to the checkpoint cycle,
	// then prove we arrived at the checkpointed state by recomputing the
	// digest. The replay target is always a paused (non-terminal) cycle,
	// so reaching a terminal state early is itself a verification failure.
	if resume != nil && resume.Attempt == attempt && resume.Cycle > m.Kernel.Now() {
		done, _ := m.RunSegment(resume.Cycle, limit)
		if done || m.Kernel.Now() != resume.Cycle || m.StateDigest() != resume.Digest {
			return runAttempt(job, attempt, opt, nil)
		}
	}

	seg := opt.SegmentCycles
	if seg <= 0 {
		seg = DefaultSegmentCycles
	}
	nextCkpt := int64(-1)
	if opt.Checkpoint != nil && opt.CheckpointEvery > 0 {
		nextCkpt = m.Kernel.Now() + opt.CheckpointEvery
	}
	snap := func() Snapshot {
		return Snapshot{Cycle: m.Kernel.Now(), Attempt: attempt, Digest: m.StateDigest(), Job: job}
	}

	var runErr error
	for {
		if err := opt.Ctx.Err(); err != nil {
			if opt.Checkpoint != nil {
				opt.Checkpoint(snap())
			}
			return Result{
				Err:      "exec: canceled: " + err.Error(),
				Canceled: true,
				Cycles:   m.Kernel.Now(),
				Metrics:  metricsOut(col, false),
			}
		}
		stopAt := m.Kernel.Now() + seg
		if nextCkpt >= 0 && nextCkpt < stopAt {
			stopAt = nextCkpt
		}
		done, err := m.RunSegment(stopAt, limit)
		if done {
			runErr = err
			break
		}
		if opt.Progress != nil {
			opt.Progress(progressOf(m, col, attempt))
		}
		if nextCkpt >= 0 && m.Kernel.Now() >= nextCkpt {
			opt.Checkpoint(snap())
			nextCkpt = m.Kernel.Now() + opt.CheckpointEvery
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
		opt.Progress(progressOf(m, col, attempt))
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
// derivation, fault plan, trace generation, engine wiring and the optional
// hop-study recorder. Attempt 0 uses the job seed; retry attempts derive a
// sub-seed from it, so every attempt is reproducible in isolation. A non-nil
// error Result means the job cannot run.
func buildAttempt(job Job, attempt int, col *metrics.Collector) (*protocol.Machine, *HopAgg, *Result) {
	seed := job.Seed()
	if attempt > 0 {
		seed = DeriveSeed(seed, fmt.Sprintf("retry/%d", attempt))
	}
	cfg := job.Config
	cfg.Seed = seed
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

func progressOf(m *protocol.Machine, col *metrics.Collector, attempt int) Progress {
	pr := Progress{Cycle: m.Kernel.Now(), Attempt: attempt}
	if col != nil {
		if p, ok := col.InFlight.Last(); ok {
			pr.InFlight = &p
		}
		if p, ok := col.Occupancy.Last(); ok {
			pr.Occupancy = &p
		}
		if p, ok := col.QueueDepth.Last(); ok {
			pr.QueueDepth = &p
		}
	}
	return pr
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
