package experiments

import (
	"fmt"

	"innetcc/internal/exec"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/stats"
	"innetcc/internal/trace"
)

// ---------------------------------------------------------------------------
// Section 1 — ideal hop-count characterization.

// HopResult is the per-benchmark outcome of the oracle hop study: the mean
// percentage hop reduction an ideal in-transit protocol could achieve.
type HopResult struct {
	Bench     string
	ReadPct   float64 // mean (base-ideal)/base over reads
	WritePct  float64
	ReadBase  float64 // mean baseline hops, for reference
	WriteBase float64
	Err       string
}

// HopCountStudy reproduces the Section 1 characterization: for every
// coherence access, the baseline directory hop count versus the oracle
// ideal (closest valid copy for reads; earliest-possible invalidation for
// writes). Paper: reads up to 35.8% (19.7% average), writes up to 32.4%
// (17.3% average).
func HopCountStudy(opt Options) ([]HopResult, error) {
	benches := trace.Benchmarks()
	var jobs []exec.Job
	for _, p := range benches {
		j := dirJob("hopcount/"+p.Name, protocol.DefaultConfig(), p, opt.AccessesPerNode, opt)
		j.CollectHops = true
		jobs = append(jobs, j)
	}
	rs, err := runJobs(opt, jobs)
	if err != nil {
		return nil, err
	}
	var out []HopResult
	for i, p := range benches {
		hr := HopResult{Bench: p.Name}
		r := rs[i]
		if r.Failed() || r.Hops == nil {
			hr.Err = r.Err
			out = append(out, hr)
			continue
		}
		h := r.Hops
		if h.Reads > 0 {
			hr.ReadPct = 100 * (h.ReadBase - h.ReadIdeal) / h.ReadBase
			hr.ReadBase = h.ReadBase / float64(h.Reads)
		}
		if h.Writes > 0 {
			hr.WritePct = 100 * (h.WriteBase - h.WriteIdeal) / h.WriteBase
			hr.WriteBase = h.WriteBase / float64(h.Writes)
		}
		out = append(out, hr)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 5 — read/write latency reduction, 16 nodes, nominal config.

// Figure5 runs all eight benchmarks on the Table 2 configuration and
// returns per-benchmark latency reductions plus the average row. Paper:
// reads -27.1% average (up to 35.5%), writes -41.2% average (up to 53.6%);
// write reduction exceeds read reduction for all but one benchmark; lu and
// rad show the least read savings.
func Figure5(opt Options) ([]PairResult, error) {
	benches := trace.Benchmarks()
	var jobs []exec.Job
	for _, p := range benches {
		cfg := protocol.DefaultConfig()
		jobs = append(jobs,
			dirJob("fig5/"+p.Name+"/dir", cfg, p, opt.AccessesPerNode, opt),
			treeJob("fig5/"+p.Name+"/tree", cfg, p, opt.AccessesPerNode, opt))
	}
	rs, err := runJobs(opt, jobs)
	if err != nil {
		return nil, err
	}
	var out []PairResult
	for i, p := range benches {
		out = append(out, pairFrom(p.Name, rs[2*i], rs[2*i+1]))
	}
	out = append(out, averagePair(out))
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 6 — tree cache size sweep (victim caching disabled).

// SweepPoint is one benchmark's normalized latencies at one configuration.
type SweepPoint struct {
	Bench string
	Value int // swept parameter (entries, ways, L2 entries, pipeline)
	Read  float64
	Write float64
	Err   string
}

// Figure6Sizes is the swept tree-cache capacity grid; 512K entries is the
// paper's effectively-unbounded normalization point.
var Figure6Sizes = []int{512 * 1024, 8192, 4096, 2048, 512}

// Figure6 sweeps the tree cache size with victim caching disabled and
// returns read/write latencies normalized to the largest configuration.
// Paper: read latency rises steadily as the cache shrinks (more trees
// evicted, more off-chip refetches); write latency is insensitive.
func Figure6(opt Options) ([]SweepPoint, error) {
	return sweepTree(opt, Figure6Sizes, func(cfg *protocol.Config, size int) {
		cfg.VictimCaching = false
		cfg.TreeEntries = size
	}, "fig6")
}

// ---------------------------------------------------------------------------
// Figure 7 — tree cache associativity sweep (victim caching disabled).

// Figure7Ways is the swept associativity grid; latencies are normalized to
// the 8-way point as in the paper.
var Figure7Ways = []int{8, 4, 2, 1}

// Figure7 sweeps tree cache associativity at 4K entries. Paper: latency is
// best at 4-way — direct-mapped suffers conflict misses, while 8-way
// suffers proactive-eviction misses (larger sets give passing writes more
// victims to tear down).
func Figure7(opt Options) ([]SweepPoint, error) {
	return sweepTree(opt, Figure7Ways, func(cfg *protocol.Config, ways int) {
		cfg.VictimCaching = false
		cfg.TreeWays = ways
	}, "fig7")
}

// sweepTree runs the in-network protocol over a parameter grid for every
// benchmark and normalizes each benchmark's latencies to its first grid
// point. A failed reference point fails that benchmark's whole series.
func sweepTree(opt Options, values []int, apply func(*protocol.Config, int), tag string) ([]SweepPoint, error) {
	benches := trace.Benchmarks()
	var jobs []exec.Job
	for _, p := range benches {
		for _, v := range values {
			cfg := protocol.DefaultConfig()
			apply(&cfg, v)
			jobs = append(jobs, treeJob(fmt.Sprintf("%s/%s/%d", tag, p.Name, v), cfg, p, opt.AccessesPerNode, opt))
		}
	}
	rs, err := runJobs(opt, jobs)
	if err != nil {
		return nil, err
	}
	var out []SweepPoint
	for bi, p := range benches {
		ref := rs[bi*len(values)]
		for vi, v := range values {
			r := rs[bi*len(values)+vi]
			pt := SweepPoint{Bench: p.Name, Value: v}
			switch {
			case r.Failed():
				pt.Err = r.Err
			case ref.Failed():
				pt.Err = fmt.Sprintf("reference point %d failed: %s", values[0], ref.Err)
			default:
				pt.Read = r.Read.Mean() / ref.Read.Mean()
				pt.Write = r.Write.Mean() / ref.Write.Mean()
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 8 — L2 data cache size sweep (both protocols).

// Figure8L2 is the swept L2 capacity grid in entries (2 MB, 512 KB, 128 KB
// at 32-byte lines).
var Figure8L2 = []int{65536, 16384, 4096}

// Figure8Point carries the reduction of in-network versus baseline at one
// L2 size.
type Figure8Point struct {
	Bench    string
	L2       int
	ReadRed  float64
	WriteRed float64
	Err      string
}

// Figure8 compares the protocols at shrinking L2 sizes. Paper: gains shrink
// with smaller L2 (less room for victimized data at the home node); rad and
// ray — the large-footprint benchmarks — go negative at 128 KB; writes stay
// insensitive.
func Figure8(opt Options) ([]Figure8Point, error) {
	benches := trace.Benchmarks()
	var jobs []exec.Job
	for _, p := range benches {
		for _, l2 := range Figure8L2 {
			cfg := protocol.DefaultConfig()
			cfg.L2Entries = l2
			key := fmt.Sprintf("fig8/%s/%d", p.Name, l2)
			jobs = append(jobs,
				dirJob(key+"/dir", cfg, p, opt.AccessesPerNode, opt),
				treeJob(key+"/tree", cfg, p, opt.AccessesPerNode, opt))
		}
	}
	rs, err := runJobs(opt, jobs)
	if err != nil {
		return nil, err
	}
	var out []Figure8Point
	i := 0
	for _, p := range benches {
		for _, l2 := range Figure8L2 {
			pair := pairFrom(p.Name, rs[i], rs[i+1])
			i += 2
			out = append(out, Figure8Point{Bench: p.Name, L2: l2,
				ReadRed: pair.ReadReduction(), WriteRed: pair.WriteReduction(),
				Err: pair.Err})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 9 — 64-node scalability.

// Figure9 runs the full comparison on an 8-by-8 mesh. Paper: savings grow
// to 35% (reads) and 48% (writes) on average — in-transit optimization
// scales with the network.
func Figure9(opt Options) ([]PairResult, error) {
	benches := trace.Benchmarks()
	var jobs []exec.Job
	for _, p := range benches {
		cfg := protocol.DefaultConfig()
		cfg.Topology = network.MeshSpec(8, 8)
		jobs = append(jobs,
			dirJob("fig9/"+p.Name+"/dir", cfg, p, opt.AccessesPerNode64, opt),
			treeJob("fig9/"+p.Name+"/tree", cfg, p, opt.AccessesPerNode64, opt))
	}
	rs, err := runJobs(opt, jobs)
	if err != nil {
		return nil, err
	}
	var out []PairResult
	for i, p := range benches {
		out = append(out, pairFrom(p.Name, rs[2*i], rs[2*i+1]))
	}
	out = append(out, averagePair(out))
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 4 — deadlock recovery cost (direct-mapped tree caches).

// Table4Row is the share of read/write latency spent in deadlock detection
// and recovery for one benchmark.
type Table4Row struct {
	Bench    string
	ReadPct  float64
	WritePct float64
	Aborts   int64
	Err      string
}

// Table4 measures the timeout/backoff recovery cost with the direct-mapped
// 4K tree cache the paper uses for this experiment. Paper: about 0.2% of
// overall latency on average.
func Table4(opt Options) ([]Table4Row, error) {
	benches := trace.Benchmarks()
	var jobs []exec.Job
	for _, p := range benches {
		cfg := protocol.DefaultConfig()
		cfg.TreeWays = 1
		jobs = append(jobs, treeJob("table4/"+p.Name, cfg, p, opt.AccessesPerNode, opt))
	}
	rs, err := runJobs(opt, jobs)
	if err != nil {
		return nil, err
	}
	var out []Table4Row
	for i, p := range benches {
		r := rs[i]
		if r.Failed() {
			out = append(out, Table4Row{Bench: p.Name, Err: r.Err})
			continue
		}
		rd, wr := r.DeadlockShare()
		out = append(out, Table4Row{Bench: p.Name, ReadPct: rd, WritePct: wr,
			Aborts: r.Counter(stats.TreeDeadlockAborts.String())})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 10 — in-network versus above-network implementation.

// Figure10 compares the in-network tree protocol against the GLOW-like
// variant whose tree caches sit at the network interfaces (every per-hop
// tree access pays an ejection and re-injection). Paper: the in-network
// implementation saves 31% (reads) and 49.1% (writes) on average, roughly
// flat across benchmarks.
func Figure10(opt Options) ([]PairResult, error) {
	benches := trace.Benchmarks()
	var jobs []exec.Job
	for _, p := range benches {
		cfgAb := protocol.DefaultConfig()
		cfgAb.AboveNetworkTree = true
		// "Baseline" here is the above-network variant.
		jobs = append(jobs,
			treeJob("fig10/"+p.Name+"/above", cfgAb, p, opt.AccessesPerNode, opt),
			treeJob("fig10/"+p.Name+"/in", protocol.DefaultConfig(), p, opt.AccessesPerNode, opt))
	}
	rs, err := runJobs(opt, jobs)
	if err != nil {
		return nil, err
	}
	var out []PairResult
	for i, p := range benches {
		out = append(out, pairFrom(p.Name, rs[2*i], rs[2*i+1]))
	}
	out = append(out, averagePair(out))
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 11 — router pipeline depth sweep.

// Figure11Point is the overall memory-latency reduction at one baseline
// pipeline depth (the in-network router is one cycle deeper).
type Figure11Point struct {
	Bench    string
	Pipeline int
	Red      float64 // overall (read+write) mean latency reduction, percent
	Err      string
}

// Figure11Depths sweeps the baseline pipeline from 5 down to 1 cycle.
var Figure11Depths = []int{5, 4, 3, 2, 1}

// Figure11 shows the in-network advantage shrinking as router pipelines
// shorten (the +1 tree-cache stage weighs relatively more). Paper: savings
// decrease monotonically toward the 2-versus-1-cycle point.
func Figure11(opt Options) ([]Figure11Point, error) {
	benches := trace.Benchmarks()
	var jobs []exec.Job
	for _, p := range benches {
		for _, depth := range Figure11Depths {
			cfg := protocol.DefaultConfig()
			cfg.BasePipeline = int64(depth)
			key := fmt.Sprintf("fig11/%s/%d", p.Name, depth)
			jobs = append(jobs,
				dirJob(key+"/dir", cfg, p, opt.AccessesPerNode, opt),
				treeJob(key+"/tree", cfg, p, opt.AccessesPerNode, opt))
		}
	}
	rs, err := runJobs(opt, jobs)
	if err != nil {
		return nil, err
	}
	var out []Figure11Point
	i := 0
	for _, p := range benches {
		for _, depth := range Figure11Depths {
			base, tree := rs[i], rs[i+1]
			i += 2
			pt := Figure11Point{Bench: p.Name, Pipeline: depth}
			if base.Failed() {
				pt.Err = base.Err
			} else if tree.Failed() {
				pt.Err = tree.Err
			} else {
				pt.Red = stats.Reduction(overallMean(base), overallMean(tree))
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// overallMean pools read and write latencies into one mean.
func overallMean(r exec.Result) float64 {
	n := r.Read.N + r.Write.N
	if n == 0 {
		return 0
	}
	return (r.Read.Sum + r.Write.Sum) / float64(n)
}

// ---------------------------------------------------------------------------
// Section 3.6 — storage scalability.

// StorageRow compares per-node coherence storage for one system size.
type StorageRow struct {
	Nodes        int
	TreeBits     int64   // per node, in-network implementation
	DirBits      int64   // per node, full-map directory
	TreeOverhead float64 // (tree-dir)/dir in percent
}

// StorageStudy reproduces the Section 3.6 bit counting: the tree cache
// entry is tag (19) plus the 9-bit line regardless of system size, while a
// full-map directory entry grows with the node count. Paper: +56% overhead
// at 16 nodes, -58% at 64 nodes.
func StorageStudy() []StorageRow {
	entries := int64(4096)
	var out []StorageRow
	for _, n := range []int{16, 64} {
		// In-network: 19-bit tag + 9-bit tree line = 28 bits.
		treeBits := entries * 28
		// Directory: tag + full-map sharer vector (N bits) + owner
		// (log2 N) + busy/request bits, per the paper's 18-bit (16
		// nodes) and 66-bit (64 nodes) entries.
		var dirEntry int64
		if n == 16 {
			dirEntry = 18
		} else {
			dirEntry = 66
		}
		dirBits := entries * dirEntry
		out = append(out, StorageRow{
			Nodes:        n,
			TreeBits:     treeBits,
			DirBits:      dirBits,
			TreeOverhead: 100 * float64(treeBits-dirBits) / float64(dirBits),
		})
	}
	return out
}
