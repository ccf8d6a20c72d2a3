// Package experiments contains one driver per table and figure of the
// paper's evaluation section (Section 3), plus the Section 1 hop-count
// characterization and the Section 3.6 storage-scalability analysis. Each
// driver regenerates the corresponding result rows/series; DESIGN.md maps
// every experiment to the modules it exercises and EXPERIMENTS.md records
// paper-versus-measured values.
//
// Drivers build declarative job batches and run them on the internal/exec
// orchestration pool: simulations execute across worker goroutines with
// per-job seeds derived from the suite seed (never from worker order), so
// every driver's output is byte-identical at any parallelism level. A
// failing simulation — error, exceeded cycle bound, or panic — fails only
// its own row (the row's Err field), and the rest of the experiment still
// completes.
package experiments

import (
	"fmt"

	"innetcc/internal/exec"
	"innetcc/internal/fault"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/stats"
	"innetcc/internal/trace"
)

// Options scales the experiments: AccessesPerNode trades fidelity for run
// time; Seed drives all randomness (per-job seeds are derived from it).
type Options struct {
	AccessesPerNode   int
	AccessesPerNode64 int
	Seed              uint64

	// Jobs is the simulation worker parallelism; <= 0 uses all cores.
	// Results are identical at every setting.
	Jobs int

	// CacheDir, when non-empty, enables the on-disk result cache there:
	// re-running an experiment whose job specs are unchanged replays
	// results from disk instead of simulating.
	CacheDir string

	// Metrics enables the cycle-level observability collector on every
	// job the experiment runs; FlightDump additionally keeps each job's
	// flight-recorder ring in its result. Both are purely observational —
	// the experiment tables are byte-identical either way.
	Metrics    bool
	FlightDump bool

	// MetricsLog, when non-nil, accumulates each metrics-carrying result
	// for reporting and export after the experiment's own tables.
	MetricsLog *MetricsLog

	// Faults, when non-empty, is a fault.ParseSpec string applied to every
	// job the experiment runs: deterministic link-fault injection plus the
	// protocol's timeout/retry knobs. Empty (the default) injects nothing
	// and leaves runs byte-identical to a fault-free build.
	Faults string

	// Watchdog arms the kernel hang watchdog on every job: a run making no
	// progress for this many cycles while work is outstanding fails loudly
	// with a reproducer seed instead of burning its full cycle bound.
	// Zero disables it.
	Watchdog int64

	// Retries is the per-job transient-failure retry budget (see
	// exec.Job.Retries). Zero means transient failures fail the row on
	// first occurrence.
	Retries int

	// Topology, when non-empty, overrides the fabric of every job the
	// experiment runs ("mesh:4x4", "torus:8x8", "ring:16", ...). Empty
	// keeps each experiment's own default (the paper's meshes). The
	// override changes the node count too, so per-node access counts
	// apply to the new fabric's nodes.
	Topology string

	// Multicast enables hardware multicast on every job: directory
	// invalidation rounds and tree teardown fan-outs ride single packets
	// the routers fork in the fabric.
	Multicast bool
}

// WithDefaults returns a copy of o with unset (zero) scaling fields filled
// in: 400/120 accesses per node (16/64-node meshes) and seed 42. It is the
// one place experiment option defaults live — drivers, benchmarks and
// examples that only want to override one knob start from a partial literal
// and call this instead of hand-rolling the rest. Negative values are left
// alone so Validate rejects them rather than silently running at defaults.
func (o Options) WithDefaults() Options {
	if o.AccessesPerNode == 0 {
		o.AccessesPerNode = 400
	}
	if o.AccessesPerNode64 == 0 {
		o.AccessesPerNode64 = 120
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Validate reports option combinations no driver can honor.
func (o Options) Validate() error {
	if o.AccessesPerNode <= 0 {
		return fmt.Errorf("experiments: AccessesPerNode must be positive, got %d (use WithDefaults)", o.AccessesPerNode)
	}
	if o.AccessesPerNode64 <= 0 {
		return fmt.Errorf("experiments: AccessesPerNode64 must be positive, got %d (use WithDefaults)", o.AccessesPerNode64)
	}
	if o.Seed == 0 {
		return fmt.Errorf("experiments: Seed must be non-zero (use WithDefaults)")
	}
	if o.FlightDump && !o.Metrics {
		return fmt.Errorf("experiments: FlightDump requires Metrics")
	}
	if o.Faults != "" {
		if _, err := fault.ParseSpec(o.Faults); err != nil {
			return fmt.Errorf("experiments: %v", err)
		}
	}
	if o.Watchdog < 0 {
		return fmt.Errorf("experiments: Watchdog must be non-negative, got %d", o.Watchdog)
	}
	if o.Retries < 0 {
		return fmt.Errorf("experiments: Retries must be non-negative, got %d", o.Retries)
	}
	if o.Topology != "" {
		if _, err := network.ParseTopoSpec(o.Topology); err != nil {
			return fmt.Errorf("experiments: %v", err)
		}
	}
	return nil
}

// runJobs executes a driver's batch on the configured pool. The returned
// error covers option misuse and infrastructure (an unusable cache
// directory); per-job failures are carried in the results.
func runJobs(opt Options, jobs []exec.Job) ([]exec.Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Metrics {
		for i := range jobs {
			jobs[i].Metrics = exec.MetricsSpec{Enabled: true, FlightDump: opt.FlightDump}
		}
	}
	if opt.Faults != "" || opt.Watchdog > 0 || opt.Retries > 0 {
		for i := range jobs {
			jobs[i].Faults = opt.Faults
			jobs[i].Retries = opt.Retries
			// Config is part of the cache identity, so arming the
			// watchdog through it invalidates stale cached rows for free.
			jobs[i].Config.WatchdogCycles = opt.Watchdog
		}
	}
	if opt.Topology != "" {
		ts, err := network.ParseTopoSpec(opt.Topology)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v", err)
		}
		for i := range jobs {
			jobs[i].Config.Topology = ts
		}
	}
	if opt.Multicast {
		for i := range jobs {
			jobs[i].Config.Multicast = true
		}
	}
	p := &exec.Pool{Workers: opt.Jobs}
	if opt.CacheDir != "" {
		c, err := exec.OpenCache(opt.CacheDir)
		if err != nil {
			return nil, err
		}
		p.Cache = c
	}
	results := p.Run(jobs)
	opt.MetricsLog.add(results)
	return results, nil
}

// dirJob and treeJob build one-simulation specs for the two protocols.
func dirJob(key string, cfg protocol.Config, p trace.Profile, accesses int, opt Options) exec.Job {
	return exec.Job{Key: key, Engine: protocol.KindDirectory, Config: cfg,
		Profile: p, Accesses: accesses, SuiteSeed: opt.Seed}
}

func treeJob(key string, cfg protocol.Config, p trace.Profile, accesses int, opt Options) exec.Job {
	return exec.Job{Key: key, Engine: protocol.KindTree, Config: cfg,
		Profile: p, Accesses: accesses, SuiteSeed: opt.Seed}
}

// PairResult compares the two protocols on one benchmark.
type PairResult struct {
	Bench     string
	BaseRead  float64
	BaseWrite float64
	TreeRead  float64
	TreeWrite float64

	// Err marks a failed row (one of the pair's simulations failed); the
	// latency fields are then zero.
	Err string
}

// ReadReduction returns the in-network read-latency reduction in percent.
func (r PairResult) ReadReduction() float64 { return stats.Reduction(r.BaseRead, r.TreeRead) }

// WriteReduction returns the in-network write-latency reduction in percent.
func (r PairResult) WriteReduction() float64 { return stats.Reduction(r.BaseWrite, r.TreeWrite) }

// pairFrom folds a (baseline, tree) result pair into one comparison row,
// propagating the first failure.
func pairFrom(bench string, base, tree exec.Result) PairResult {
	if base.Failed() {
		return PairResult{Bench: bench, Err: base.Err}
	}
	if tree.Failed() {
		return PairResult{Bench: bench, Err: tree.Err}
	}
	return PairResult{
		Bench:     bench,
		BaseRead:  base.Read.Mean(),
		BaseWrite: base.Write.Mean(),
		TreeRead:  tree.Read.Mean(),
		TreeWrite: tree.Write.Mean(),
	}
}

// averagePair folds a slice of pair results into an "avg" row over the
// rows that succeeded.
func averagePair(rs []PairResult) PairResult {
	var a PairResult
	a.Bench = "avg"
	n := 0.0
	for _, r := range rs {
		if r.Err != "" {
			continue
		}
		a.BaseRead += r.BaseRead
		a.BaseWrite += r.BaseWrite
		a.TreeRead += r.TreeRead
		a.TreeWrite += r.TreeWrite
		n++
	}
	if n > 0 {
		a.BaseRead /= n
		a.BaseWrite /= n
		a.TreeRead /= n
		a.TreeWrite /= n
	}
	return a
}
