// Command innetcc regenerates the tables and figures of "In-Network Cache
// Coherence" (MICRO 2006) on the repository's simulation stack: synthetic
// SPLASH-2-like traces, a cycle-driven mesh network-on-chip, the baseline
// MSI directory protocol and the in-network virtual-tree protocol.
//
// Simulations are dispatched through the internal/exec orchestration pool:
// -jobs sets the worker parallelism (output is byte-identical at any
// setting) and -cache enables the on-disk result cache, making repeated
// runs of unchanged experiments near-instant.
//
// Usage:
//
//	innetcc -list                     # enumerate experiments
//	innetcc -exp all                  # every experiment
//	innetcc -exp fig5                 # one experiment
//	innetcc -exp fig9 -accesses 300   # heavier per-node load
//	innetcc -exp all -jobs 8          # 8 simulation workers
//	innetcc -exp all -cache .innetcc-cache
//	innetcc -exp fig5 -cpuprofile cpu.pprof -memprofile mem.pprof
//	innetcc -exp mcheck               # exhaustive model checking
//	innetcc -exp fig5 -metrics       # + latency breakdown / NoC tables
//	innetcc -exp fig5 -metrics -metrics-out m.csv   # export (.json for JSON)
//	innetcc -exp fig5 -flight-dump   # + per-job protocol event ring
//	innetcc -exp fig5 -faults drop=2000,retries=4 -watchdog 2000000 -retries 1
//
// Server mode (-serve) runs the persistent simulation-as-a-service layer
// (internal/serve): an HTTP/JSON job API with a priority queue, per-tenant
// quotas, streaming progress, and checkpoint/restore so interrupted jobs
// resume after a restart. Client mode (-client) talks to it:
//
//	innetcc -serve :8080 -serve-data ./serve-data -tenants 'alice=2:16'
//	innetcc -client http://localhost:8080 -submit -profile fft -engine tree \
//	        -accesses 400 -tenant alice -watch yes
//	innetcc -client http://localhost:8080 -stats
//
// -metrics attaches the cycle-level observability layer (internal/metrics)
// to every simulation: per-router link utilization and queue occupancy,
// tree-cache hit/miss/eviction counters, and a per-access latency breakdown
// (queueing / serialization / traversal / controller) whose components sum
// to the reported average latency. Instrumentation is purely observational:
// simulation results are byte-identical with metrics on or off.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"innetcc/internal/experiments"
	"innetcc/internal/mcheck"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
)

// experiment is one registry entry: a runnable table/figure driver with the
// one-line description -list prints.
type experiment struct {
	name string
	desc string
	run  func(w io.Writer, opt experiments.Options) error
}

// registry lists every experiment in the order -exp all runs them.
var registry = []experiment{
	{"hopcount", "Section 1 oracle hop-count characterization (ideal in-transit reductions)", runHopCount},
	{"fig5", "Figure 5: read/write latency reduction, 16 nodes, Table 2 config", runFigure5},
	{"table3", "Table 3: tree cache access time and area grid (Cacti-style model)", runTable3},
	{"fig6", "Figure 6: tree cache capacity sweep, victim caching off", runFigure6},
	{"fig7", "Figure 7: tree cache associativity sweep, victim caching off", runFigure7},
	{"fig8", "Figure 8: L2 data cache size sweep, both protocols", runFigure8},
	{"fig9", "Figure 9: 64-node (8x8 mesh) scalability comparison", runFigure9},
	{"table4", "Table 4: deadlock detection/recovery latency share, DM tree cache", runTable4},
	{"fig10", "Figure 10: in-network vs above-network tree implementation", runFigure10},
	{"fig11", "Figure 11: router pipeline depth sweep", runFigure11},
	{"ablations", "Design-decision ablations: victim caching, proactive eviction, replication", runAblations},
	{"storage", "Section 3.6: per-node coherence storage scalability", runStorage},
	{"mcheck", "Section 2.4: exhaustive model checking of the reduced protocol", runMCheck},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (\"all\" or a name from -list)")
	list := flag.Bool("list", false, "list all experiments with descriptions and exit")
	accesses := flag.Int("accesses", 0, "trace accesses per node, 16-node experiments (0 = default)")
	accesses64 := flag.Int("accesses64", 0, "trace accesses per node, 64-node experiments (0 = default)")
	seed := flag.Uint64("seed", 0, "experiment suite seed, per-job seeds derive from it (0 = default)")
	jobs := flag.Int("jobs", 0, "simulation worker parallelism (0 = all cores); results are identical at any setting")
	cacheDir := flag.String("cache", "", "on-disk result cache directory (empty = caching off)")
	metricsOn := flag.Bool("metrics", false, "attach the cycle-level observability layer and print per-job metric tables")
	metricsOut := flag.String("metrics-out", "", "export collected metrics to this file (.json = JSON, anything else = sectioned CSV); implies -metrics")
	flightDump := flag.Bool("flight-dump", false, "print each job's flight-recorder event ring; implies -metrics")
	faults := flag.String("faults", "", "fault injection spec, e.g. \"drop=2000,timeout=20000,retries=4\" (see internal/fault; empty = off)")
	watchdog := flag.Int64("watchdog", 0, "hang watchdog window in cycles: fail a run making no progress for this long (0 = off)")
	retries := flag.Int("retries", 0, "re-run a transiently failed job (hang, retry budget) this many times with derived sub-seeds")
	topology := flag.String("topology", "", "fabric override for every simulation: mesh:WxH, torus:WxH or ring:N (empty = each experiment's default mesh)")
	multicast := flag.Bool("multicast", false, "enable hardware multicast: directory invalidation rounds and tree teardown fan-outs ride single router-forked packets")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")

	var lf litmusFlags
	flag.IntVar(&lf.count, "litmus", 0, "run a litmus-fuzzing campaign of this many generated conflict programs instead of an experiment")
	flag.StringVar(&lf.engine, "litmus-engine", "both", "litmus: engine(s) to replay each program on (dir|tree|both)")
	flag.StringVar(&lf.bug, "litmus-bug", "", "litmus: seeded defect mask for the tree engine, e.g. \"skip-invalidate\" (mutation testing)")
	flag.BoolVar(&lf.shrink, "litmus-shrink", true, "litmus: shrink failing specs to minimal reproducers before reporting")
	flag.StringVar(&lf.out, "litmus-out", "", "litmus: write reproducer spec files for failing runs into this directory")
	flag.StringVar(&lf.replay, "litmus-replay", "", "replay a saved litmus reproducer spec file and report the oracle outcome")

	flag.StringVar(&mcheckMesh, "mcheck-mesh", "2x2", "mcheck: fabric for the model-checking run — WxH or mesh:WxH, torus:WxH, ring:N")
	flag.IntVar(&mcheckWorkers, "mcheck-workers", 0, "mcheck: parallel BFS workers (0 = all cores, 1 = serial); counts identical at any setting")

	var sf serveFlags
	flag.StringVar(&sf.addr, "serve", "", "run the persistent job server on this listen address (e.g. :8080) instead of an experiment")
	flag.StringVar(&sf.dataDir, "serve-data", defaultServeData(), "server persistence root (job records, checkpoints, result cache)")
	flag.StringVar(&sf.tenants, "tenants", "", "per-tenant quotas, \"name=maxRunning[:maxQueued],...\" (unlisted tenants get the default quota)")
	flag.IntVar(&sf.workers, "serve-workers", 0, "concurrent simulations in server mode (0 = 1)")
	flag.Int64Var(&sf.ckptEvry, "ckpt-every", 5_000_000, "simulated cycles between job checkpoints in server mode (0 = only on drain)")
	flag.StringVar(&sf.client, "client", "", "talk to a running job server at this URL instead of running an experiment")
	flag.StringVar(&sf.tenant, "tenant", "", "client: tenant name for submissions")
	flag.IntVar(&sf.priority, "priority", 0, "client: submission priority (higher runs first)")
	flag.BoolVar(&sf.submit, "submit", false, "client: submit a job (-profile, -engine, -accesses; add -watch to stream it)")
	flag.StringVar(&sf.profile, "profile", "fft", "client: trace profile name for -submit")
	flag.StringVar(&sf.engine, "engine", "tree", "client: coherence engine for -submit (dir|tree)")
	flag.StringVar(&sf.watch, "watch", "", "client: stream a job's progress to completion (with -submit: any non-empty value watches the new job)")
	flag.StringVar(&sf.status, "status", "", "client: print one job's record")
	flag.StringVar(&sf.result, "result", "", "client: print a finished job's result")
	flag.StringVar(&sf.cancel, "cancel", "", "client: cancel a queued or running job")
	flag.BoolVar(&sf.stats, "stats", false, "client: print server queue/tenant/cache statistics")

	flag.Parse()

	if *list {
		printList(os.Stdout)
		return
	}
	if sf.addr != "" {
		if err := runServe(os.Stdout, sf); err != nil {
			fmt.Fprintln(os.Stderr, "innetcc:", err)
			os.Exit(1)
		}
		return
	}
	if lf.replay != "" {
		if err := runLitmusReplay(os.Stdout, lf.replay); err != nil {
			fmt.Fprintln(os.Stderr, "innetcc:", err)
			os.Exit(1)
		}
		return
	}
	if lf.count > 0 {
		lf.seed = *seed
		if lf.seed == 0 {
			lf.seed = 1
		}
		lf.faults = *faults
		lf.jobs = *jobs
		if err := runLitmus(os.Stdout, lf); err != nil {
			fmt.Fprintln(os.Stderr, "innetcc:", err)
			os.Exit(1)
		}
		return
	}
	if sf.client != "" {
		if err := runClient(os.Stdout, sf, *accesses, *seed, *faults, *retries, *metricsOn, *topology, *multicast); err != nil {
			fmt.Fprintln(os.Stderr, "innetcc:", err)
			os.Exit(1)
		}
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "innetcc:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "innetcc:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	opt := experiments.Options{
		AccessesPerNode:   *accesses,
		AccessesPerNode64: *accesses64,
		Seed:              *seed,
		Jobs:              *jobs,
		CacheDir:          *cacheDir,
		Metrics:           *metricsOn || *metricsOut != "" || *flightDump,
		FlightDump:        *flightDump,
		Faults:            *faults,
		Watchdog:          *watchdog,
		Retries:           *retries,
		Topology:          *topology,
		Multicast:         *multicast,
	}.WithDefaults()
	if err := opt.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "innetcc:", err)
		os.Exit(1)
	}
	if err := run(os.Stdout, *exp, opt, *metricsOut, *flightDump); err != nil {
		fmt.Fprintln(os.Stderr, "innetcc:", err)
		os.Exit(1)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "innetcc:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "innetcc:", err)
			os.Exit(1)
		}
	}
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "experiments (run with -exp <name>, or -exp all):")
	for _, e := range registry {
		fmt.Fprintf(w, "  %-10s %s\n", e.name, e.desc)
	}
	fmt.Fprintln(w, "coherence engines:")
	for _, k := range protocol.EngineKinds() {
		fmt.Fprintf(w, "  %-10s %s\n", k, k.Describe())
	}
}

func run(w io.Writer, exp string, opt experiments.Options, metricsOut string, flightDump bool) error {
	var export []experiments.MetricsEntry
	runOne := func(e experiment) error {
		if opt.Metrics {
			opt.MetricsLog = &experiments.MetricsLog{} // fresh per experiment
		}
		if err := e.run(w, opt); err != nil {
			return err
		}
		if opt.MetricsLog != nil {
			experiments.PrintMetrics(w, opt.MetricsLog)
			if flightDump {
				experiments.PrintFlight(w, opt.MetricsLog, maxFlightPrint)
			}
			export = append(export, opt.MetricsLog.Entries...)
		}
		fmt.Fprintln(w)
		return nil
	}

	found := false
	for _, e := range registry {
		if exp == "all" || e.name == exp {
			found = true
			if err := runOne(e); err != nil {
				return err
			}
		}
	}
	if !found {
		printList(os.Stderr)
		return fmt.Errorf("unknown experiment %q (see list above, or run innetcc -list)", exp)
	}
	if metricsOut != "" {
		if err := writeMetrics(metricsOut, export); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics: wrote %d job payload(s) to %s\n", len(export), metricsOut)
	}
	return nil
}

// maxFlightPrint caps the per-job flight tail printed by -flight-dump; the
// full retained ring is available via -metrics-out JSON.
const maxFlightPrint = 64

func writeMetrics(path string, entries []experiments.MetricsEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		if err := experiments.WriteMetricsJSON(f, entries); err != nil {
			return err
		}
	} else if err := experiments.WriteMetricsCSV(f, entries); err != nil {
		return err
	}
	return f.Close()
}

func runHopCount(w io.Writer, opt experiments.Options) error {
	rs, err := experiments.HopCountStudy(opt)
	if err != nil {
		return err
	}
	experiments.PrintHopStudy(w, rs)
	return nil
}

func runFigure5(w io.Writer, opt experiments.Options) error {
	rs, err := experiments.Figure5(opt)
	if err != nil {
		return err
	}
	experiments.PrintPairs(w, "Figure 5 — latency reduction, 16 nodes (Table 2 config)", rs,
		"(paper avg: reads -27.1%, writes -41.2%)")
	return nil
}

func runTable3(w io.Writer, _ experiments.Options) error {
	experiments.PrintTable3(w)
	return nil
}

func runFigure6(w io.Writer, opt experiments.Options) error {
	pts, err := experiments.Figure6(opt)
	if err != nil {
		return err
	}
	experiments.PrintSweep(w, "Figure 6 — tree cache size sweep (normalized to 512K entries, victim caching off)", pts, "entries")
	return nil
}

func runFigure7(w io.Writer, opt experiments.Options) error {
	pts, err := experiments.Figure7(opt)
	if err != nil {
		return err
	}
	experiments.PrintSweep(w, "Figure 7 — tree cache associativity sweep (normalized to 8-way, victim caching off)", pts, "ways")
	return nil
}

func runFigure8(w io.Writer, opt experiments.Options) error {
	pts, err := experiments.Figure8(opt)
	if err != nil {
		return err
	}
	experiments.PrintFigure8(w, pts)
	return nil
}

func runFigure9(w io.Writer, opt experiments.Options) error {
	rs, err := experiments.Figure9(opt)
	if err != nil {
		return err
	}
	experiments.PrintPairs(w, "Figure 9 — latency reduction, 64 nodes (8x8 mesh)", rs,
		"(paper avg: reads -35%, writes -48%)")
	return nil
}

func runTable4(w io.Writer, opt experiments.Options) error {
	rows, err := experiments.Table4(opt)
	if err != nil {
		return err
	}
	experiments.PrintTable4(w, rows)
	return nil
}

func runFigure10(w io.Writer, opt experiments.Options) error {
	rs, err := experiments.Figure10(opt)
	if err != nil {
		return err
	}
	experiments.PrintPairs(w, "Figure 10 — in-network vs above-network tree implementation", rs,
		"(paper avg: reads -31%, writes -49.1%)")
	return nil
}

func runFigure11(w io.Writer, opt experiments.Options) error {
	pts, err := experiments.Figure11(opt)
	if err != nil {
		return err
	}
	experiments.PrintFigure11(w, pts)
	return nil
}

func runAblations(w io.Writer, opt experiments.Options) error {
	rows, err := experiments.Ablations(opt)
	if err != nil {
		return err
	}
	experiments.PrintAblations(w, rows)
	return nil
}

func runStorage(w io.Writer, _ experiments.Options) error {
	experiments.PrintStorage(w, experiments.StorageStudy())
	return nil
}

// mcheckMesh and mcheckWorkers are the -mcheck-mesh / -mcheck-workers flag
// values (registered in main, read by runMCheck through the registry).
var (
	mcheckMesh    string
	mcheckWorkers int
)

func runMCheck(w io.Writer, _ experiments.Options) error {
	ts, err := network.ParseTopoSpec(mcheckMesh)
	if err != nil {
		return fmt.Errorf("mcheck: bad -mcheck-mesh %q (want WxH, mesh:WxH, torus:WxH or ring:N)", mcheckMesh)
	}
	topo := ts.Build()
	if topo.Nodes() < 4 {
		return fmt.Errorf("mcheck: fabric %s too small for the default program (needs >= 4 nodes)", ts)
	}
	workers := mcheckWorkers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	home, ops := mcheck.DefaultProgram()
	fmt.Fprintln(w, "Section 2.4 — exhaustive model checking of the reduced protocol")
	c := mcheck.NewTopology(topo, home, ops)
	c.Workers = workers
	res := c.Run()
	fmt.Fprintf(w, "program: 2 concurrent reads + 2 concurrent writes, home=%d, fabric %s, %d worker(s)\n",
		home, topo.Spec(), workers)
	fmt.Fprintf(w, "%v\n", res)
	for _, v := range res.Violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
	for _, d := range res.Deadlocks {
		fmt.Fprintln(w, "DEADLOCK:", d)
	}
	if len(res.Violations)+len(res.Deadlocks) == 0 {
		fmt.Fprintln(w, "result: coherent and sequentially consistent in every reachable state")
	}
	return nil
}
