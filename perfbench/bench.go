package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	// minReps is the fewest repetitions a run makes, however long they take.
	minReps = 3
	// budget bounds a whole run: a repetition still running then is stopped
	// and its simulations count as failed.
	budget = 170 * time.Second
)

var endToEnd = []string{"wall_s", "setup_s", "cpu_s", "peak_rss_mb", "sim_accesses_per_s"}

// setupLayers are the per-layer metrics a batch takes from its
// construction-only pass: Build's MemStats deltas are exact only when one
// Build runs at a time, as there and unlike in the batch's traced run.
var setupLayers = map[string]bool{"protocol.build_alloc_mb": true, "protocol.build_mallocs": true}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRep runs one repetition as a child process of this binary and returns
// its report and the child's peak resident memory in MB.
func runRep(ctx context.Context, exe, mode, workload string, seed uint64, out string) (report, float64, error) {
	cmd := osexec.CommandContext(ctx, exe, "-child", mode, "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-out", out)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	var rep report
	if err != nil {
		return rep, 0, fmt.Errorf("%s repetition: %w", mode, err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, 0, fmt.Errorf("%s repetition: bad report: %w", mode, err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return rep, rss, nil
}

// bench makes repetitions of w until seconds have passed (at least
// minReps), judges every simulation, and prints the run record and then the
// result line.
func bench(w workload, seed uint64, seconds float64, traced bool, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	suite := suiteSeed(seed)
	jobs := w.jobs(suite)
	g := newGate(suite)
	e2e, layers := map[string][]float64{}, map[string][]float64{}
	var tracedWall []float64
	var sims []simOut // shard choices, from the first repetition that reports them
	start := time.Now()
	reps := 0
	for ; reps < minReps || time.Since(start).Seconds()*float64(reps+1)/float64(reps) <= seconds; reps++ {
		if ctx.Err() != nil {
			break
		}
		run, rss, err := runRep(ctx, exe, modeRun, w.name, seed, out)
		g.judge(jobs, run.Sims, run.Rows, err)
		if err == nil {
			e2e["wall_s"] = append(e2e["wall_s"], run.WallS)
			e2e["cpu_s"] = append(e2e["cpu_s"], run.CPUS)
			e2e["peak_rss_mb"] = append(e2e["peak_rss_mb"], rss)
			e2e["sim_accesses_per_s"] = append(e2e["sim_accesses_per_s"], float64(run.Accesses)/run.WallS)
			if !w.batch {
				e2e["setup_s"] = append(e2e["setup_s"], run.SetupS)
				if sims == nil {
					sims = run.Sims
				}
			}
		}
		if w.batch {
			// The exec pool builds inside its jobs, so the batch's set-up
			// time comes from a construction-only pass, kept out of wall_s.
			setup, _, err := runRep(ctx, exe, modeSetup, w.name, seed, out)
			if err != nil {
				g.judge(jobs, nil, nil, err)
			} else {
				e2e["setup_s"] = append(e2e["setup_s"], setup.SetupS)
				for k, v := range setup.Layers {
					layers[k] = append(layers[k], v)
				}
				if sims == nil {
					sims = setup.Sims
				}
			}
		}
		if traced {
			tr, _, err := runRep(ctx, exe, modeTraced, w.name, seed, out)
			g.judge(jobs, tr.Sims, tr.Rows, err)
			if err == nil {
				tracedWall = append(tracedWall, tr.WallS)
				for k, v := range tr.Layers {
					if !(w.batch && setupLayers[k]) {
						layers[k] = append(layers[k], v)
					}
				}
				if w.batch {
					sims = tr.Sims // the only run of a batch's jobs that sees their final width
				}
			}
		}
	}

	res := result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metric{}}
	if traced {
		layers["tracing.overhead_frac"] = []float64{ratio(median(tracedWall), median(e2e["wall_s"])) - 1}
		layers["fail_rate"] = []float64{ratio(float64(g.failed), float64(g.attempted))}
		layers["host_cpus"] = []float64{float64(runtime.NumCPU())}
		layers["gomaxprocs"] = []float64{float64(runtime.GOMAXPROCS(0))}
		for _, k := range perLayer {
			res.Metrics[k] = metric{median(layers[k]), unit(k)}
		}
	} else {
		for _, k := range endToEnd {
			res.Metrics[k] = metric{median(e2e[k]), unit(k)}
		}
	}

	type simShards struct {
		Key    string `json:"key"`
		Shards int    `json:"shards"`
		Width  int    `json:"width,omitempty"` // final width; absent when not run
	}
	var shardInfo []simShards
	for _, s := range sims {
		shardInfo = append(shardInfo, simShards{s.Key, s.Shards, s.Width})
	}
	spread := map[string]float64{}
	for k, vs := range e2e {
		spread[k] = iqrOverMedian(vs)
	}
	rec := map[string]any{
		"workload": w.name, "seed": seed, "suite_seed": suite, "trace": traced,
		"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"recorded_seed": g.want != nil, "repetitions": reps,
		"samples": e2e, "spread": spread, "sims": shardInfo, "failures": g.reasons,
	}
	tag := 0
	if traced {
		tag = 1
		rec["layer_samples"] = layers
		rec["traced_wall_s"] = tracedWall
	}
	if err := writeJSON(filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, tag)), rec); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(res)
}

// iqrOverMedian is the distance between the first and third quartiles of vs
// over their median, with quartiles as Python's statistics.quantiles(vs,
// n=4) computes them.
func iqrOverMedian(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return ratio(q(3)-q(1), median(s))
}
