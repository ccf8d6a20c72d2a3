package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	osexec "os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"innetcc/internal/protocol"
)

// perLayer lists the per-layer metrics a traced run reports, in print
// order; unit derives each one's unit from its name.
var perLayer = []string{
	"trace.gen_s",
	"protocol.build_s", "protocol.build_alloc_mb", "protocol.build_mallocs", "protocol.run_s",
	"protocol.read_lat_cycles", "protocol.write_lat_cycles", "protocol.local_hits",
	"sim.cycles", "sim.busy_cycles", "sim.parallel_cycles", "sim.barrier_wait_s", "sim.shards", "sim.width",
	"network.router_ticks", "network.packets", "network.hops", "network.self_ns_per_tick",
	"treecc.route_calls", "treecc.route_s", "treecc.eject_calls", "treecc.eject_s",
	"treecc.sharer_serve_ratio", "treecc.teardowns",
	"directory.route_calls", "directory.route_s", "directory.eject_calls", "directory.eject_s", "directory.invals",
	"cache.l2_hit_ratio", "cache.l2_evictions",
	"cache.cpu_frac", "verify.cpu_frac", "stats.cpu_frac", "network.cpu_frac", "treecc.cpu_frac",
	"directory.cpu_frac", "sim.cpu_frac", "protocol.cpu_frac", "memory.cpu_frac", "trace.cpu_frac",
	"runtime.cpu_frac",
	"exec.jobs", "exec.job_s_p50", "exec.job_s_max", "exec.queue_wait_s", "exec.pool_util", "exec.attempts",
	"runtime.alloc_mb", "runtime.gc_count", "runtime.gc_pause_s", "runtime.gc_cpu_frac",
	"tracing.overhead_frac", "tracing.span_coverage",
	"fail_rate", "host_cpus", "gomaxprocs",
}

// profiledModules are the modules whose share of CPU self time the traced
// run reports as <module>.cpu_frac; runtime is the Go runtime (GC,
// scheduler, allocator).
var profiledModules = []string{"cache", "verify", "stats", "network", "treecc", "directory",
	"sim", "protocol", "memory", "trace", "runtime"}

// unit derives a metric's unit from its name.
func unit(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_per_tick"):
		return "ns"
	case strings.HasSuffix(name, "_s"), strings.Contains(name, "_s_"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "cycles"):
		return "cycles"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_util"),
		strings.HasSuffix(name, "_rate"), strings.HasSuffix(name, "_coverage"):
		return "ratio"
	}
	return "count"
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives a traced run's per-layer metrics from its totals,
// its spans (root is the workload span), the MemStats around the run, the
// job parallelism and the CPU shares by module.
func layerMetrics(t totals, spans []span, root, workers int, ms0, ms1 *runtime.MemStats, cpu map[string]float64) map[string]float64 {
	sum := map[string]float64{}
	var jobs []span
	var jobDur []float64
	var busy, queue float64
	for _, s := range spans {
		sum[s.Name] += s.dur()
		if s.Parent == root && strings.HasPrefix(s.Name, "job ") {
			jobs = append(jobs, s)
			jobDur = append(jobDur, s.dur())
			busy += s.dur()
			queue += s.Start - spans[root].Start
		}
	}
	sort.Float64s(jobDur)
	wall := spans[root].dur()
	const mb = 1 << 20
	dir, tree := protocol.KindDirectory, protocol.KindTree
	runS := sum["protocol.Run"]
	self := runS - sum["Policy.Route"] - sum["EjectFn"] - sum["barrier wait"]
	m := map[string]float64{
		"trace.gen_s":               sum["trace.Generate"],
		"protocol.build_s":          sum["protocol.Build"],
		"protocol.build_alloc_mb":   float64(t.buildAllocB) / mb,
		"protocol.build_mallocs":    float64(t.buildMallocs),
		"protocol.run_s":            runS,
		"protocol.read_lat_cycles":  ratio(t.readSum, float64(t.readN)),
		"protocol.write_lat_cycles": ratio(t.writeSum, float64(t.writeN)),
		"protocol.local_hits":       float64(t.localHits),
		"sim.cycles":                float64(t.cycles),
		"sim.busy_cycles":           float64(t.busy),
		"sim.parallel_cycles":       float64(t.parallel),
		"sim.barrier_wait_s":        float64(t.barrierNs) / 1e9,
		"sim.shards":                float64(t.shards),
		"sim.width":                 float64(t.width),
		"network.router_ticks":      float64(t.routerTicks),
		"network.packets":           float64(t.packets),
		"network.hops":              float64(t.hops),
		"network.self_ns_per_tick":  ratio(self*1e9, float64(t.routerTicks)),
		"treecc.route_calls":        float64(t.route[tree].calls),
		"treecc.route_s":            float64(t.route[tree].ns) / 1e9,
		"treecc.eject_calls":        float64(t.eject[tree].calls),
		"treecc.eject_s":            float64(t.eject[tree].ns) / 1e9,
		"treecc.sharer_serve_ratio": ratio(float64(t.sharerServes), float64(t.rdReqs)),
		"treecc.teardowns":          float64(t.teardowns),
		"directory.route_calls":     float64(t.route[dir].calls),
		"directory.route_s":         float64(t.route[dir].ns) / 1e9,
		"directory.eject_calls":     float64(t.eject[dir].calls),
		"directory.eject_s":         float64(t.eject[dir].ns) / 1e9,
		"directory.invals":          float64(t.invals),
		"cache.l2_hit_ratio":        ratio(float64(t.localHits), float64(t.accesses)),
		"cache.l2_evictions":        float64(t.evictions),
		"exec.jobs":                 float64(len(jobs)),
		"exec.job_s_p50":            median(jobDur),
		"exec.job_s_max":            jobDur[len(jobDur)-1],
		"exec.queue_wait_s":         queue,
		"exec.pool_util":            ratio(busy, float64(workers)*wall),
		"exec.attempts":             float64(t.sims),
		"runtime.alloc_mb":          float64(ms1.TotalAlloc-ms0.TotalAlloc) / mb,
		"runtime.gc_count":          float64(ms1.NumGC - ms0.NumGC),
		"runtime.gc_pause_s":        float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9,
		"runtime.gc_cpu_frac":       ms1.GCCPUFraction,
		"tracing.span_coverage":     ratio(covered(jobs), wall),
	}
	for _, mod := range profiledModules {
		m[mod+".cpu_frac"] = cpu[mod]
	}
	return m
}

// cpuShares reads a CPU profile's stacks with `go tool pprof -traces` and
// returns each module's share of all samples. A sample counts for the
// innermost module of the repository on its stack, so the runtime and
// standard library work a module calls (allocation, map lookups, locks)
// is its own; samples with no such frame count for the Go runtime.
func cpuShares(binary, prof string) (map[string]float64, error) {
	cmd := osexec.Command("go", "tool", "pprof", "-traces", "-unit=ms", "-symbolize=none", binary, prof)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	self := map[string]float64{}
	var total, ms float64
	owner := ""
	flush := func() {
		if ms > 0 {
			if owner == "" {
				owner = "runtime"
			}
			self[owner] += ms
			total += ms
		}
		ms, owner = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			continue
		}
		// A stack is a "<value>ms <leaf function>" line followed by one
		// line per caller.
		f := strings.Fields(line)
		if len(f) >= 2 && strings.HasSuffix(f[0], "ms") {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64); err == nil {
				ms, f = v, f[1:]
			}
		}
		if ms > 0 && owner == "" && len(f) > 0 {
			if mod, ok := module(f[0]); ok {
				owner = mod
			}
		}
	}
	flush()
	shares := map[string]float64{}
	for k, v := range self {
		shares[k] = ratio(v, total)
	}
	return shares, nil
}

// module names the repository module a profiled function belongs to — its
// package under innetcc/internal, or "main" for this harness — and reports
// false for the Go runtime and standard library.
func module(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "main", true
	}
	rest, ok := strings.CutPrefix(fn, "innetcc/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
