package exec

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"testing"

	"innetcc/internal/metrics"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
)

// goldenCounterDrops is the drop-plan run's fault spec (the same plan the
// verify package's golden digest table pins).
const goldenCounterDrops = "drop=2500,timeout=200000,retries=6,backoff=64,probe=2000"

// goldenCounterStallCorrupt is the stall-and-corrupt run's fault spec.
// Stalled links make routed heads wait, so the serial-wait charge under
// stall faults is non-zero. At this corruption rate the tree engine's
// recovery does not complete the run: it ends in a retry-budget failure,
// and the failure itself (node, line, cycle) is pinned too.
// goldenCounterStall is the same plan without corruption, which completes.
const (
	goldenCounterStallCorrupt = "corrupt=2000,stall=20000,stalllen=8,timeout=200000,retries=6,backoff=64,probe=2000"
	goldenCounterStall        = "stall=20000,stalllen=8,timeout=200000,retries=6,backoff=64,probe=2000"
)

// goldenCounterRun pins one run's event counters: Result.Counters (the
// machine's counters, which also enter the state digest) and
// Result.Metrics.Counters (the collector's observational counters), plus
// the NoC aggregates and latency breakdown of Result.Metrics and, for a
// run that fails, its error.
type goldenCounterRun struct {
	Err               string
	Counters, Metrics map[string]int64
	NoC               goldenNoC
}

// goldenNoC is one run's router aggregates summed over every router (and
// port), and its Read/Write latency breakdown.
type goldenNoC struct {
	Grants, SerialWait, BusyCycles, PolicyStalls, QueueSum int64
	Read, Write                                            metrics.BreakdownClass
}

func nocOf(mo *MetricsOut) goldenNoC {
	g := goldenNoC{Read: mo.Read, Write: mo.Write}
	for _, r := range mo.Routers {
		g.PolicyStalls += r.PolicyStalls
		for _, l := range r.Links {
			g.Grants += l.Grants
			g.SerialWait += l.SerialWait
			g.BusyCycles += l.BusyCycles
		}
		for _, q := range r.QueueSum {
			g.QueueSum += q
		}
	}
	return g
}

// goldenCountersPin ties goldenCounters to SpecVersion (see checkPin).
var goldenCountersPin = tablePin{version: 10, hash: 0x5760dc34710c583f}

// goldenCounters pins the counter maps and NoC aggregates of five 4x4 runs
// at suite seed 42 with 60 accesses per node and metrics enabled. The
// digest table pins simulated behaviour; this one pins what the counters
// report about it, so a change that miscounts without changing behaviour
// fails here. A deliberate change re-records the table from the failure
// messages, bumps SpecVersion and re-pins goldenCountersPin.
var goldenCounters = map[string]goldenCounterRun{
	"dir/wsp": {
		Counters: map[string]int64{"dir.fwds": 175, "dir.inv_packets": 188, "dir.invals": 188, "dir.mem_reads": 132},
		Metrics:  map[string]int64{"dir_fwd": 175, "dir_inval": 188},
		NoC: goldenNoC{Grants: 6484, SerialWait: 569, BusyCycles: 13100, PolicyStalls: 0, QueueSum: 39801,
			Read:  metrics.BreakdownClass{N: 307, Total: 48520, Queue: 44, Serial: 119, Traversal: 16626, Controller: 31731},
			Write: metrics.BreakdownClass{N: 240, Total: 21680, Queue: 44, Serial: 55, Traversal: 10188, Controller: 11393}},
	},
	"tree/wsp/drops": {
		// The zero fault.* entries are counters folded in with a zero
		// delta: touched counters are reported even when zero.
		Counters: map[string]int64{"fault.checksum_drops": 0, "fault.corruptions": 0, "fault.drops": 6, "fault.probes": 4, "fault.stall_cycles": 0, "retry.reissues": 6, "tree.backoffs": 1, "tree.deadlock_aborts": 1, "tree.held_acks": 5, "tree.mem_reads": 134, "tree.rd_reqs": 316, "tree.reply_reverts": 1, "tree.serve_races": 2, "tree.sharer_serves": 179, "tree.teardowns": 795, "tree.teardowns_completed": 189, "tree.uncached_completions": 5, "tree.wr_reqs": 242, "tree.write_bumps": 174},
		Metrics:  map[string]int64{"hops_saved": 131, "tree_bump": 401, "tree_hit": 964, "tree_miss": 1397},
		NoC: goldenNoC{Grants: 5376, SerialWait: 145, BusyCycles: 9388, PolicyStalls: 30, QueueSum: 40126,
			Read:  metrics.BreakdownClass{N: 311, Total: 49710, Queue: 43, Serial: 41, Traversal: 17409, Controller: 32217},
			Write: metrics.BreakdownClass{N: 241, Total: 20183, Queue: 8, Serial: 25, Traversal: 11859, Controller: 8291}},
	},
	"tree/bar/torus-multicast": {
		Counters: map[string]int64{"tree.held_acks": 8, "tree.mem_reads": 149, "tree.rd_reqs": 305, "tree.serve_races": 1, "tree.sharer_serves": 156, "tree.td_multicasts": 52, "tree.teardowns": 530, "tree.teardowns_completed": 149, "tree.uncached_completions": 8, "tree.wr_reqs": 200, "tree.write_bumps": 106},
		Metrics:  map[string]int64{"hops_saved": 26, "tree_bump": 306, "tree_hit": 737, "tree_miss": 1120},
		NoC: goldenNoC{Grants: 4048, SerialWait: 89, BusyCycles: 7624, PolicyStalls: 0, QueueSum: 29952,
			Read:  metrics.BreakdownClass{N: 305, Total: 49853, Queue: 13, Serial: 35, Traversal: 14989, Controller: 34816},
			Write: metrics.BreakdownClass{N: 200, Total: 13433, Queue: 4, Serial: 11, Traversal: 8298, Controller: 5120}},
	},
	"tree/wsp/stall-corrupt": {
		// Corruption spares non-retryable packets at the default scope, so
		// the run completes.
		Counters: map[string]int64{"fault.checksum_drops": 3, "fault.corruptions": 3, "fault.drops": 0, "fault.probes": 4, "fault.stall_cycles": 2693, "retry.reissues": 3, "tree.held_acks": 7, "tree.mem_reads": 132, "tree.rd_reqs": 312, "tree.serve_races": 2, "tree.sharer_serves": 177, "tree.teardowns": 794, "tree.teardowns_completed": 188, "tree.uncached_completions": 7, "tree.wr_reqs": 242, "tree.write_bumps": 176},
		Metrics:  map[string]int64{"hops_saved": 118, "tree_bump": 420, "tree_hit": 983, "tree_miss": 1408},
		NoC: goldenNoC{Grants: 5416, SerialWait: 87, BusyCycles: 9436, PolicyStalls: 0, QueueSum: 40762,
			Read:  metrics.BreakdownClass{N: 309, Total: 49640, Queue: 154, Serial: 36, Traversal: 17570, Controller: 31880},
			Write: metrics.BreakdownClass{N: 242, Total: 20020, Queue: 113, Serial: 12, Traversal: 11889, Controller: 8006}},
	},
	"tree/wsp/stall": {
		Counters: map[string]int64{"fault.checksum_drops": 0, "fault.corruptions": 0, "fault.drops": 0, "fault.probes": 4, "fault.stall_cycles": 2546, "tree.backoffs": 2, "tree.deadlock_aborts": 2, "tree.held_acks": 8, "tree.mem_reads": 132, "tree.rd_reqs": 310, "tree.serve_races": 1, "tree.sharer_serves": 180, "tree.teardowns": 796, "tree.teardowns_completed": 188, "tree.uncached_completions": 8, "tree.wr_reqs": 242, "tree.write_bumps": 172},
		Metrics:  map[string]int64{"hops_saved": 127, "tree_bump": 414, "tree_hit": 972, "tree_miss": 1401},
		NoC: goldenNoC{Grants: 5396, SerialWait: 109, BusyCycles: 9400, PolicyStalls: 60, QueueSum: 40577,
			Read:  metrics.BreakdownClass{N: 310, Total: 49240, Queue: 179, Serial: 20, Traversal: 17505, Controller: 31536},
			Write: metrics.BreakdownClass{N: 242, Total: 20145, Queue: 141, Serial: 23, Traversal: 11918, Controller: 8063}},
	},
}

func goldenCounterJobs() []Job {
	dir := testJob("wsp", protocol.KindDirectory, 60)
	dir.Key = "dir/wsp"
	drops := testJob("wsp", protocol.KindTree, 60)
	drops.Key = "tree/wsp/drops"
	drops.Faults = goldenCounterDrops
	mc := testJob("bar", protocol.KindTree, 60)
	mc.Key = "tree/bar/torus-multicast"
	mc.Config.Topology = network.TorusSpec(4, 4)
	mc.Config.Multicast = true
	sc := testJob("wsp", protocol.KindTree, 60)
	sc.Key = "tree/wsp/stall-corrupt"
	sc.Faults = goldenCounterStallCorrupt
	st := testJob("wsp", protocol.KindTree, 60)
	st.Key = "tree/wsp/stall"
	st.Faults = goldenCounterStall
	jobs := []Job{dir, drops, mc, sc, st}
	for i := range jobs {
		jobs[i].Metrics = MetricsSpec{Enabled: true}
	}
	return jobs
}

// goMap renders a counter map as a sorted Go literal for re-recording.
func goMap(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("map[string]int64{")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %d", k, m[k])
	}
	b.WriteString("}")
	return b.String()
}

// TestGoldenCounters replays each pinned run and compares both counter
// maps and the NoC aggregates with goldenCounters.
func TestGoldenCounters(t *testing.T) {
	checkPin(t, "goldenCounters", goldenCounters, goldenCountersPin)
	for _, j := range goldenCounterJobs() {
		j := j
		t.Run(j.Key, func(t *testing.T) {
			t.Parallel()
			res := simulate(j, 0)
			if res.Metrics == nil {
				t.Fatalf("no metrics payload (err %q)", res.Err)
			}
			got := goldenCounterRun{Err: res.Err, Counters: res.Counters, Metrics: res.Metrics.Counters, NoC: nocOf(res.Metrics)}
			if want, ok := goldenCounters[j.Key]; !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("counters diverged from the pinned run:\n%q: {\n\tErr:      %q,\n\tCounters: %s,\n\tMetrics:  %s,\n\tNoC:      %#v,\n},",
					j.Key, got.Err, goMap(got.Counters), goMap(got.Metrics), got.NoC)
			}
		})
	}
}

// tablePin is a golden table's hash and the SpecVersion it was
// recorded at.
type tablePin struct {
	version int
	hash    uint64
}

// checkPin fails t unless table, hashed as FNV-1a over its Go syntax (%#v
// prints map keys sorted), matches pin at the current SpecVersion.
func checkPin(t *testing.T, name string, table any, pin tablePin) {
	t.Helper()
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", table)
	got := tablePin{SpecVersion, h.Sum64()}
	switch {
	case got.hash != pin.hash && got.version == pin.version:
		t.Fatalf("%s changed (hash %#x, pinned %#x), but exec.SpecVersion is still %d: re-recorded goldens change what a spec computes, so bump it, then re-pin the table", name, got.hash, pin.hash, pin.version)
	case got != pin:
		t.Fatalf("%s is pinned at spec version %d; re-pin it as tablePin{version: %d, hash: %#x}", name, pin.version, got.version, got.hash)
	}
}
