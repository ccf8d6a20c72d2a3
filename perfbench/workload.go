package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"innetcc/internal/exec"
	"innetcc/internal/experiments"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/stats"
	"innetcc/internal/trace"
)

// A workload is a fixed batch of simulations. jobs lists them as exec job
// specs; every mode runs them from these specs, seeded by exec.Job.Seed
// exactly as the exec pool seeds them. A batch workload's timed run is
// experiments.Figure9 on the exec pool instead of direct Build+Run calls.
type workload struct {
	name  string
	jobs  func(suite uint64) []exec.Job
	batch bool
}

var workloads = []workload{
	{name: "mesh16_tree", jobs: mesh16Jobs},
	{name: "mesh4_long", jobs: mesh4Jobs},
	{name: "fig9_batch", jobs: fig9Jobs, batch: true},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// suiteSeed maps the benchmark seed to the experiments suite seed: the seed
// itself, with 0 meaning the experiments default (42), as Figure9 reads it.
func suiteSeed(seed uint64) uint64 {
	return experiments.Options{Seed: seed}.WithDefaults().Seed
}

func profile(name string) trace.Profile {
	p, err := trace.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// mesh16Jobs is one big simulation: a 16x16 mesh, tree engine, the Table 2
// config otherwise, the bar profile and auto shards.
func mesh16Jobs(suite uint64) []exec.Job {
	cfg := protocol.DefaultConfig()
	cfg.Topology = network.MeshSpec(16, 16)
	return []exec.Job{{Key: "mesh16_tree/bar/tree", Engine: protocol.KindTree,
		Config: cfg, Profile: profile("bar"), Accesses: 200, SuiteSeed: suite}}
}

// mesh4Jobs is the paper's Table 2 4x4 mesh, {directory, tree} x {wsp, ray},
// long enough that construction is a small share of the time.
func mesh4Jobs(suite uint64) []exec.Job {
	var jobs []exec.Job
	for _, name := range []string{"wsp", "ray"} {
		for _, k := range protocol.EngineKinds() {
			jobs = append(jobs, exec.Job{Key: "mesh4_long/" + name + "/" + k.String(), Engine: k,
				Config: protocol.DefaultConfig(), Profile: profile(name), Accesses: 6000, SuiteSeed: suite})
		}
	}
	return jobs
}

// fig9Jobs repeats the 16 job specs experiments.Figure9 builds with default
// options: every profile, directory then tree, on an 8x8 mesh.
func fig9Jobs(suite uint64) []exec.Job {
	opt := experiments.Options{Seed: suite}.WithDefaults()
	var jobs []exec.Job
	for _, p := range trace.Benchmarks() {
		cfg := protocol.DefaultConfig()
		cfg.Topology = network.MeshSpec(8, 8)
		for _, k := range protocol.EngineKinds() {
			jobs = append(jobs, exec.Job{Key: "fig9_batch/" + p.Name + "/" + k.String(), Engine: k,
				Config: cfg, Profile: p, Accesses: opt.AccessesPerNode64, SuiteSeed: opt.Seed})
		}
	}
	return jobs
}

// simOut is one simulation's outcome: the simulated results the correctness
// gate compares, the shard choice the kernel made, and host timings.
type simOut struct {
	Key       string  `json:"key"`
	Err       string  `json:"err,omitempty"`
	Accesses  int64   `json:"accesses"`
	Completed int64   `json:"completed"`
	Cycles    int64   `json:"cycles"`
	Digest    string  `json:"digest"`
	ReadN     int64   `json:"read_n"`
	ReadSum   float64 `json:"read_sum"`
	WriteN    int64   `json:"write_n"`
	WriteSum  float64 `json:"write_sum"`
	Shards    int     `json:"shards"`
	Width     int     `json:"width"`
	SetupS    float64 `json:"setup_s"` // trace.Generate + protocol.Build
	WallS     float64 `json:"wall_s"`  // setup, Machine.Run and summarizing
	CPUS      float64 `json:"cpu_s"`
}

// buildSim generates the job's trace and constructs its machine, with spans
// around both when tc is non-nil.
func buildSim(job exec.Job, tc *tracer, parent int) (*protocol.Machine, error) {
	cfg := job.Config
	cfg.Seed = job.Seed()
	sp := tc.begin("trace.Generate", parent)
	tr := trace.Generate(job.Profile, cfg.Nodes(), job.Accesses, cfg.Seed)
	tc.end(sp)
	sp = tc.begin("protocol.Build", parent)
	m, err := protocol.Build(protocol.Spec{Config: cfg, Trace: tr, Think: job.Profile.Think,
		Engine: job.Engine, Shards: job.Shards})
	tc.end(sp)
	return m, err
}

// runSim runs one simulation from its spec: build, Machine.Run and the
// latency summary exec computes for a result. With a non-nil probe it is the
// traced run: spans, timing wrappers and per-layer counts go to the probe.
// The state digest is taken after the timed part.
func runSim(job exec.Job, pb *probe) (out simOut) {
	out.Key = job.Key
	out.Accesses = int64(job.Config.Nodes() * job.Accesses)
	defer func() {
		if r := recover(); r != nil {
			out.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	tc, parent := pb.tracer(), -1
	if pb != nil {
		parent = tc.begin("job "+job.Key, pb.parent)
		defer tc.end(parent)
	}
	var ms0, ms1 runtime.MemStats
	if pb != nil {
		runtime.ReadMemStats(&ms0)
	}
	start, cpu0 := time.Now(), cpuSeconds()
	m, err := buildSim(job, tc, parent)
	out.SetupS = time.Since(start).Seconds()
	if err != nil {
		out.Err = err.Error()
		return out
	}
	var w wrappers
	if pb != nil {
		runtime.ReadMemStats(&ms1)
		w = instrument(m)
	}
	m.ReadSamples, m.WriteSamples = &stats.Sampler{}, &stats.Sampler{}
	sp := tc.begin("protocol.Run", parent)
	err = m.Run(exec.DefaultMaxCycles)
	tc.end(sp)
	m.ReadSamples.Summarize()
	m.WriteSamples.Summarize()
	out.WallS, out.CPUS = time.Since(start).Seconds(), cpuSeconds()-cpu0

	if err != nil {
		out.Err = err.Error()
	}
	out.Completed = m.Lat.Read.N + m.Lat.Write.N + m.LocalHits
	out.Cycles = m.Kernel.Now()
	out.ReadN, out.ReadSum = m.Lat.Read.N, m.Lat.Read.Sum
	out.WriteN, out.WriteSum = m.Lat.Write.N, m.Lat.Write.Sum
	st := m.Kernel.ShardStats()
	out.Shards, out.Width = m.Kernel.Shards(), st.Width
	out.Digest = fmt.Sprintf("%016x", m.StateDigest())
	if pb != nil {
		pb.collect(job, m, w, sp, ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs)
	}
	return out
}

// runJobs runs the jobs on workers goroutines pulling jobs in order, as the
// exec pool does, and returns the outcomes in job order.
func runJobs(jobs []exec.Job, workers int, pb *probe) []simOut {
	outs := make([]simOut, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outs[i] = runSim(jobs[i], pb)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return outs
}

// fig9Rows folds fig9 outcomes (directory then tree per profile, in
// trace.Benchmarks order) into the rows experiments.Figure9 returns, with
// the same arithmetic, so the two can be compared exactly.
func fig9Rows(outs []simOut) []experiments.PairResult {
	mean := func(sum float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	var rows []experiments.PairResult
	avg := experiments.PairResult{Bench: "avg"}
	n := 0.0
	for i, p := range trace.Benchmarks() {
		base, tree := outs[2*i], outs[2*i+1]
		r := experiments.PairResult{Bench: p.Name}
		switch {
		case base.Err != "":
			r.Err = base.Err
		case tree.Err != "":
			r.Err = tree.Err
		default:
			r.BaseRead, r.BaseWrite = mean(base.ReadSum, base.ReadN), mean(base.WriteSum, base.WriteN)
			r.TreeRead, r.TreeWrite = mean(tree.ReadSum, tree.ReadN), mean(tree.WriteSum, tree.WriteN)
			avg.BaseRead += r.BaseRead
			avg.BaseWrite += r.BaseWrite
			avg.TreeRead += r.TreeRead
			avg.TreeWrite += r.TreeWrite
			n++
		}
		rows = append(rows, r)
	}
	if n > 0 {
		avg.BaseRead /= n
		avg.BaseWrite /= n
		avg.TreeRead /= n
		avg.TreeWrite /= n
	}
	return append(rows, avg)
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
