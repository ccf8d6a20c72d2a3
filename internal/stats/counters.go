package stats

import "sort"

// Counter identifies one protocol event counter. Counters are array slots
// rather than map keys, so an increment is one indexed add.
type Counter uint8

// The counter registry. The machine counters (dir.*, tree.*, l2.*, fault.*,
// retry.*) are owned by a protocol.Machine: they enter its state digest and
// Result.Counters. The Metric* counters are owned by a metrics.Collector:
// they are observational and are exported only with -metrics.
const (
	DirEvictions Counter = iota
	DirFwdMisses
	DirFwds
	DirInvPackets
	DirInvals
	DirMemReads
	DirVictimHits
	FaultChecksumDrops
	FaultCorruptions
	FaultDrops
	FaultProbes
	FaultStallCycles
	L2Evictions
	RetryReissues
	RetryStaleReplies
	TreeBackoffs
	TreeConflictEvictions
	TreeDeadlockAborts
	TreeHeldAcks
	TreeMemReads
	TreeProactiveEvictions
	TreeRdReqs
	TreeReentries
	TreeReplicas
	TreeReplyReverts
	TreeServeRaces
	TreeSharerServes
	TreeStaleAcks
	TreeTdMulticasts
	TreeTeardowns
	TreeTeardownsCompleted
	TreeUncachedCompletions
	TreeUnlinks
	TreeVictimHits
	TreeWrReqs
	TreeWriteBumps

	// MetricTreeHit and MetricTreeMiss count request (RdReq/WrReq)
	// lookups that found, or did not find, a live untouched tree line at
	// a router; reply-side lookups are construction work and are not
	// counted.
	MetricTreeHit
	MetricTreeMiss
	// MetricTreeBump counts requests steered along a tree link toward the
	// root/data instead of continuing to the home node.
	MetricTreeBump
	// MetricHopsSaved accumulates, over sharer serves, the hop distance
	// saved versus routing the request to the home node (a serve farther
	// than home subtracts).
	MetricHopsSaved
	// MetricDirFwd and MetricDirInval count baseline-directory read
	// forwards and invalidation messages.
	MetricDirFwd
	MetricDirInval

	// NumCounters sizes counter arrays; keep it last.
	NumCounters
)

// The touched set is one uint64 bit mask.
var _ [64 - NumCounters]struct{}

// counterNames is the registry's name table, in const-block order: the
// export name of every counter, used by Result.Counters, the state digest
// and -metrics. These names are persisted (result cache, CSV export), and
// stats tests pin each one against its Counter.
var counterNames = [NumCounters]string{
	"dir.evictions", "dir.fwd_misses", "dir.fwds", "dir.inv_packets",
	"dir.invals", "dir.mem_reads", "dir.victim_hits",
	"fault.checksum_drops", "fault.corruptions", "fault.drops",
	"fault.probes", "fault.stall_cycles",
	"l2.evictions",
	"retry.reissues", "retry.stale_replies",
	"tree.backoffs", "tree.conflict_evictions", "tree.deadlock_aborts",
	"tree.held_acks", "tree.mem_reads", "tree.proactive_evictions",
	"tree.rd_reqs", "tree.reentries", "tree.replicas", "tree.reply_reverts",
	"tree.serve_races", "tree.sharer_serves", "tree.stale_acks",
	"tree.td_multicasts", "tree.teardowns", "tree.teardowns_completed",
	"tree.uncached_completions", "tree.unlinks", "tree.victim_hits",
	"tree.wr_reqs", "tree.write_bumps",
	"tree_hit", "tree_miss", "tree_bump", "hops_saved", "dir_fwd",
	"dir_inval",
}

// String returns the counter's export name.
func (k Counter) String() string { return counterNames[k] }

// Counters is a set of event counters. It is owned by one machine or one
// collector and updated from one goroutine, so it needs no locking. A
// counter is touched once it has been incremented, even by zero; Names
// lists exactly the touched counters.
type Counters struct {
	v       [NumCounters]int64
	touched uint64
}

// Inc adds d to counter k and marks it touched.
func (c *Counters) Inc(k Counter, d int64) {
	c.v[k] += d
	c.touched |= 1 << k
}

// Get returns the counter with export name name (0 if it was never
// incremented or the name is unknown).
func (c *Counters) Get(name string) int64 {
	for k, n := range counterNames {
		if n == name {
			return c.v[k]
		}
	}
	return 0
}

// Names returns the names of the touched counters in sorted order.
func (c *Counters) Names() []string {
	var names []string
	for k, n := range counterNames {
		if c.touched&(1<<k) != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}
