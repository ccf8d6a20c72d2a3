// Command perfbench is the repository benchmark. It repeats one seeded
// simulator workload for a fixed time, each repetition in a fresh process,
// checks every simulation it ran, and prints the end-to-end metrics — or,
// with -trace 1, the per-layer metrics of separate traced runs — as one JSON
// object on the last line of standard output. run.sh builds and starts it;
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"innetcc/internal/exec"
	"innetcc/internal/experiments"
)

// Repetition modes. Each repetition runs in a child process of its own, so
// no heap state from one measured repetition reaches the next.
const (
	modeRun    = "run"    // the workload as a user starts it, tracing off
	modeSetup  = "setup"  // construction-only pass over a batch's job specs
	modeTraced = "traced" // spans, timing wrappers and a CPU profile
)

func main() {
	name := flag.String("workload", "", "workload to run: mesh16_tree, mesh4_long or fig9_batch")
	seed := flag.Uint64("seed", 42, "workload seed (0 selects the experiments default, 42)")
	seconds := flag.Float64("seconds", 40, "start repetitions until this many seconds have passed")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics from traced runs")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run records, spans and CPU profiles")
	child := flag.String("child", "", "run one repetition in this mode (run, setup or traced) and print its report")
	record := flag.String("record", "", "print every workload's results for a seed list such as 1:24,42 in the form of expected.json")
	flag.Parse()

	err := func() error {
		if *record != "" {
			return recordSeeds(os.Stdout, *record)
		}
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		if *child != "" {
			rep, err := runChild(w, suiteSeed(*seed), *child, *out)
			if err != nil {
				return err
			}
			return json.NewEncoder(os.Stdout).Encode(rep)
		}
		if *traced != 0 && *traced != 1 {
			return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
		}
		return bench(w, *seed, *seconds, *traced == 1, *out)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report is what one repetition prints for the parent.
type report struct {
	WallS    float64                  `json:"wall_s"`
	CPUS     float64                  `json:"cpu_s"`
	SetupS   float64                  `json:"setup_s"`
	Accesses int64                    `json:"accesses"`
	Sims     []simOut                 `json:"sims,omitempty"`
	Rows     []experiments.PairResult `json:"rows,omitempty"`
	Layers   map[string]float64       `json:"layers,omitempty"`
}

// runChild runs one repetition of w in the given mode.
func runChild(w workload, suite uint64, mode, out string) (report, error) {
	jobs := w.jobs(suite)
	var rep report
	for _, j := range jobs {
		rep.Accesses += int64(j.Config.Nodes() * j.Accesses)
	}
	switch mode {
	case modeRun:
		if w.batch {
			start, cpu0 := time.Now(), cpuSeconds()
			rows, err := experiments.Figure9(experiments.Options{Seed: suite}.WithDefaults())
			if err != nil {
				return rep, err
			}
			experiments.PrintPairs(io.Discard, "Figure 9", rows, "")
			rep.WallS, rep.CPUS, rep.Rows = time.Since(start).Seconds(), cpuSeconds()-cpu0, rows
			return rep, nil
		}
		rep.Sims = runJobs(jobs, 1, nil)
		for _, s := range rep.Sims {
			rep.WallS += s.WallS
			rep.CPUS += s.CPUS
			rep.SetupS += s.SetupS
		}
	case modeSetup:
		var alloc, mallocs uint64
		for _, j := range jobs {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			m, err := buildSim(j, nil, -1)
			rep.SetupS += time.Since(start).Seconds()
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return rep, err
			}
			alloc += ms1.TotalAlloc - ms0.TotalAlloc
			mallocs += ms1.Mallocs - ms0.Mallocs
			rep.Sims = append(rep.Sims, simOut{Key: j.Key, Shards: m.Kernel.Shards()})
		}
		rep.Layers = map[string]float64{
			"protocol.build_alloc_mb": float64(alloc) / (1 << 20),
			"protocol.build_mallocs":  float64(mallocs),
		}
	case modeTraced:
		return tracedRun(w, jobs, rep, out)
	default:
		return rep, fmt.Errorf("unknown mode %q", mode)
	}
	return rep, nil
}

// tracedRun is the traced repetition. The workload's jobs run directly — a
// batch on one goroutine per CPU, as the exec pool runs it — with spans,
// Policy and EjectFn timing wrappers and a CPU profile. The spans and the
// profile are written under out.
func tracedRun(w workload, jobs []exec.Job, rep report, out string) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.name, jobs[0].SuiteSeed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return rep, err
	}
	defer prof.Close()
	workers := 1
	if w.batch {
		workers = min(runtime.GOMAXPROCS(0), len(jobs))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	// Five times the default rate, so that modules with a few percent of
	// a few seconds still get tens of samples. StartCPUProfile then warns
	// on stderr that a rate is already set, and keeps this one.
	runtime.SetCPUProfileRate(500)
	if err := pprof.StartCPUProfile(prof); err != nil {
		return rep, err
	}
	tc := newTracer()
	root := tc.begin("workload "+w.name, -1)
	pb := newProbe(tc, root)
	rep.Sims = runJobs(jobs, workers, pb)
	tc.end(root)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err := prof.Close(); err != nil {
		return rep, err
	}
	cpu, err := cpuShares(exe, prof.Name())
	if err != nil {
		return rep, err
	}
	spans := tc.snapshot()
	rep.WallS = spans[root].dur()
	rep.Layers = layerMetrics(pb.t, spans, root, workers, &ms0, &ms1, cpu)
	if w.batch {
		rep.Rows = fig9Rows(rep.Sims)
	}
	return rep, writeJSON(base+".spans.json", spans)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
