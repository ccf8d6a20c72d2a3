package exec

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"innetcc/internal/network"
	"innetcc/internal/protocol"
)

// goldenCounterDrops is the drop-plan run's fault spec (the same plan the
// verify package's golden digest table pins).
const goldenCounterDrops = "drop=2500,timeout=200000,retries=6,backoff=64,probe=2000"

// goldenCounterRun pins one run's event counters: Result.Counters (the
// machine's counters, which also enter the state digest) and
// Result.Metrics.Counters (the collector's observational counters).
type goldenCounterRun struct {
	Counters, Metrics map[string]int64
}

// goldenCounters pins the counter maps of three 4x4 runs at suite seed 42
// with 60 accesses per node and metrics enabled. The digest table pins
// simulated behaviour; this one pins what the counters report about it, so
// a change that miscounts without changing behaviour fails here. A
// deliberate change re-records the table from the failure messages.
var goldenCounters = map[string]goldenCounterRun{
	"dir/wsp": {
		Counters: map[string]int64{"dir.fwds": 175, "dir.inv_packets": 188, "dir.invals": 188, "dir.mem_reads": 132},
		Metrics:  map[string]int64{"dir_fwd": 175, "dir_inval": 188},
	},
	"tree/wsp/drops": {
		// The zero fault.* entries are counters folded in with a zero
		// delta: touched counters are reported even when zero.
		Counters: map[string]int64{"fault.checksum_drops": 0, "fault.corruptions": 0, "fault.drops": 6, "fault.probes": 4, "fault.stall_cycles": 0, "retry.reissues": 6, "tree.backoffs": 1, "tree.deadlock_aborts": 1, "tree.held_acks": 5, "tree.mem_reads": 134, "tree.rd_reqs": 316, "tree.reply_reverts": 1, "tree.serve_races": 2, "tree.sharer_serves": 179, "tree.teardowns": 795, "tree.teardowns_completed": 189, "tree.uncached_completions": 5, "tree.wr_reqs": 242, "tree.write_bumps": 174},
		Metrics:  map[string]int64{"hops_saved": 131, "tree_bump": 401, "tree_hit": 964, "tree_miss": 1397},
	},
	"tree/bar/torus-multicast": {
		Counters: map[string]int64{"tree.held_acks": 8, "tree.mem_reads": 149, "tree.rd_reqs": 305, "tree.serve_races": 1, "tree.sharer_serves": 156, "tree.td_multicasts": 52, "tree.teardowns": 530, "tree.teardowns_completed": 149, "tree.uncached_completions": 8, "tree.wr_reqs": 200, "tree.write_bumps": 106},
		Metrics:  map[string]int64{"hops_saved": 26, "tree_bump": 306, "tree_hit": 737, "tree_miss": 1120},
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
	jobs := []Job{dir, drops, mc}
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
// maps with goldenCounters.
func TestGoldenCounters(t *testing.T) {
	for _, j := range goldenCounterJobs() {
		j := j
		t.Run(j.Key, func(t *testing.T) {
			t.Parallel()
			res := simulate(j, 0)
			if res.Failed() {
				t.Fatalf("run failed: %s", res.Err)
			}
			if res.Metrics == nil {
				t.Fatal("no metrics payload")
			}
			got := goldenCounterRun{Counters: res.Counters, Metrics: res.Metrics.Counters}
			if want, ok := goldenCounters[j.Key]; !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("counters diverged from the pinned run:\n%q: {\n\tCounters: %s,\n\tMetrics:  %s,\n},",
					j.Key, goMap(got.Counters), goMap(got.Metrics))
			}
		})
	}
}
