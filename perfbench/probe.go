package main

import (
	"sync"
	"time"

	"innetcc/internal/exec"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
)

// timedPolicy wraps a mesh's routing policy and times every Route call.
// Shard workers call Route concurrently for routers of different shards, so
// the tallies are per router; the kernel's cycle barrier orders the calls
// one router gets from different workers.
type timedPolicy struct {
	inner     network.Policy
	calls, ns []int64
}

func (p *timedPolicy) Route(r *network.Router, pk *network.Packet, now int64) network.Steer {
	t := time.Now()
	st := p.inner.Route(r, pk, now)
	p.ns[r.NodeID] += int64(time.Since(t))
	p.calls[r.NodeID]++
	return st
}

func (p *timedPolicy) totals() (calls, ns int64) {
	for i := range p.calls {
		calls += p.calls[i]
		ns += p.ns[i]
	}
	return calls, ns
}

// timedEject wraps a mesh's EjectFn. Ejections run in the kernel's event
// phase, on one goroutine.
type timedEject struct {
	inner     func(node int, p *network.Packet, now int64)
	calls, ns int64
}

func (e *timedEject) eject(node int, p *network.Packet, now int64) {
	t := time.Now()
	e.inner(node, p, now)
	e.ns += int64(time.Since(t))
	e.calls++
}

// probe is the traced run's instrumentation: it folds each simulation's
// public state and wrapper timings into the workload totals when it ends.
// A batch's simulations run concurrently, so the totals are guarded. A nil
// probe is the untraced run.
type probe struct {
	tc     *tracer
	parent int // span the simulations' job spans hang under

	mu sync.Mutex
	t  totals
}

type wrappers struct {
	policy *timedPolicy
	eject  *timedEject
}

// callTally is a call count and the time those calls took.
type callTally struct{ calls, ns int64 }

// totals sums per-layer counts over a workload's simulations. Engine-keyed
// tallies are indexed by protocol.EngineKind.
type totals struct {
	sims                         int64
	accesses, localHits          int64
	readN, writeN                int64
	readSum, writeSum            float64
	buildAllocB, buildMallocs    uint64
	cycles, busy, parallel       int64
	barrierNs, routerTicks       int64
	packets, hops                int64
	shards, width                int
	route, eject                 [3]callTally
	sharerServes, rdReqs         int64
	teardowns, invals, evictions int64
}

func newProbe(tc *tracer, parent int) *probe {
	return &probe{tc: tc, parent: parent}
}

func (p *probe) tracer() *tracer {
	if p == nil {
		return nil
	}
	return p.tc
}

// instrument installs timing wrappers on m's Policy and EjectFn.
func instrument(m *protocol.Machine) wrappers {
	n := m.Mesh.Nodes()
	w := wrappers{
		policy: &timedPolicy{inner: m.Mesh.Policy, calls: make([]int64, n), ns: make([]int64, n)},
		eject:  &timedEject{inner: m.Mesh.EjectFn},
	}
	m.Mesh.Policy = w.policy
	m.Mesh.EjectFn = w.eject.eject
	return w
}

// collect folds a finished simulation into the totals and records the
// time its wrappers w measured and its barrier-wait time as aggregate spans
// under runSpan. allocB and mallocs are the MemStats deltas over its Build.
func (p *probe) collect(job exec.Job, m *protocol.Machine, w wrappers, runSpan int, allocB, mallocs uint64) {
	st := m.Kernel.ShardStats()
	p.mu.Lock()
	defer p.mu.Unlock()
	rc, rns := w.policy.totals()
	p.tc.aggregate("Policy.Route", runSpan, time.Duration(rns), rc)
	p.tc.aggregate("EjectFn", runSpan, time.Duration(w.eject.ns), w.eject.calls)
	p.tc.aggregate("barrier wait", runSpan, time.Duration(st.BarrierWaitNs), st.ParallelCycles)

	t := &p.t
	t.sims++
	t.accesses += int64(job.Config.Nodes() * job.Accesses)
	t.localHits += m.LocalHits
	t.readN += m.Lat.Read.N
	t.readSum += m.Lat.Read.Sum
	t.writeN += m.Lat.Write.N
	t.writeSum += m.Lat.Write.Sum
	t.buildAllocB += allocB
	t.buildMallocs += mallocs
	t.cycles += m.Kernel.Now()
	t.busy += st.BusyCycles
	t.parallel += st.ParallelCycles
	t.barrierNs += st.BarrierWaitNs
	t.routerTicks += st.ActiveSum
	t.packets += m.Mesh.DeliveredPackets
	t.hops += m.Mesh.TotalHops
	t.shards = max(t.shards, m.Kernel.Shards())
	t.width = max(t.width, st.Width)
	t.route[job.Engine].calls += rc
	t.route[job.Engine].ns += rns
	t.eject[job.Engine].calls += w.eject.calls
	t.eject[job.Engine].ns += w.eject.ns
	t.sharerServes += m.Counters.Get("tree.sharer_serves")
	t.rdReqs += m.Counters.Get("tree.rd_reqs")
	t.teardowns += m.Counters.Get("tree.teardowns")
	t.invals += m.Counters.Get("dir.invals")
	t.evictions += m.Counters.Get("l2.evictions")
}
