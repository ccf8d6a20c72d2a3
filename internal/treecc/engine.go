package treecc

import (
	"innetcc/internal/cache"
	"innetcc/internal/metrics"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/stats"
)

// Engine is the in-network coherence engine. It implements both
// protocol.Engine (the machine-facing side: misses, NIC ejections) and
// network.Policy (the router-facing side: the per-hop protocol kernel of
// the paper's Table 1, driven by the per-router virtual tree caches).
type Engine struct {
	m     *protocol.Machine
	trees []*cache.Cache[TreeLine]

	// topo and deg cache the fabric shape the per-hop kernel routes
	// against; deg bounds every link-bit scan so ring trees never look at
	// ports the fabric does not have.
	topo network.Topology
	deg  int

	// homeQueue holds requests that reached the home node while the
	// line's tree was being torn down; they are re-released when the
	// teardown completes (Requirement 1). The maps are per home node:
	// every access happens at an address's home.
	homeQueue []map[uint64][]*protocol.Msg

	// pending marks addresses whose home is currently producing a reply
	// (memory fetch, victim lookup or write grant in progress); requests
	// arriving meanwhile queue here and re-release just after the reply
	// is injected, keeping home-side serialization airtight. Per home
	// node, like homeQueue.
	pending []map[uint64][]*protocol.Msg

	// rootData holds the version captured from a tree's root as the
	// tree is torn down, modeling the paper's piggybacking of the
	// root's data in the acknowledgment that terminates at the home
	// node (the victim-caching optimization). One tree exists per
	// address at a time, so the map is keyed by address. It is written
	// at the root and read at the home.
	rootData map[uint64]uint64

	// queued counts entries across homeQueue, pending and backoff waits,
	// for Quiesced.
	queued int

	// genCounters are the per-node tree-line generation stamps (see
	// TreeLine.Gen). Generations are only ever compared within one
	// node's tree cache, so per-node counters stamp equivalently to a
	// global counter.
	genCounters []uint64

	// hopFree is the free list of teardown and acknowledgment messages
	// (see spawnHop). A hop message lives exactly as long as its pool
	// packet: the next router's routeHop consumes it, and the mesh's
	// recycle hook (recycleHop) returns it here when the packet dies.
	// Nothing may keep a hop message past that point; nothing queues one.
	hopFree []*protocol.Msg

	// Kernel callbacks bound once in New: each runs a handler on (node,
	// message), so the per-message NIC dispatches, memory fetches and
	// home serves schedule without building a closure.
	onServeRead, onGrantWrite, onFinishRead, onFinishWrite, onMemRead, onHomeServe func(int, any)

	// Bugs is the seeded-defect mask (see Bug). Zero — the only value
	// anything outside the litmus/mutation test harnesses ever uses —
	// leaves the protocol unmodified.
	Bugs Bug
}

func init() {
	protocol.RegisterEngineBuilder(protocol.KindTree,
		func(m *protocol.Machine) protocol.Engine { return New(m) })
}

// New builds the in-network engine on machine m. The mesh runs with the
// deeper router pipeline (base + tree cache stage); the Figure 10 variant
// instead keeps the base pipeline and pays an eject/re-inject penalty at
// every hop.
func New(m *protocol.Machine) *Engine {
	cfg := m.Cfg
	e := &Engine{
		m:           m,
		homeQueue:   make([]map[uint64][]*protocol.Msg, cfg.Nodes()),
		pending:     make([]map[uint64][]*protocol.Msg, cfg.Nodes()),
		rootData:    make(map[uint64]uint64),
		genCounters: make([]uint64, cfg.Nodes()),
	}
	for i := 0; i < cfg.Nodes(); i++ {
		e.trees = append(e.trees, cache.New[TreeLine](cfg.TreeEntries, cfg.TreeWays))
		e.homeQueue[i] = make(map[uint64][]*protocol.Msg)
		e.pending[i] = make(map[uint64][]*protocol.Msg)
	}
	e.onServeRead = protocol.MsgCall(e.serveRead)
	e.onGrantWrite = protocol.MsgCall(e.grantWrite)
	e.onFinishRead = protocol.MsgCall(e.finishRead)
	e.onFinishWrite = protocol.MsgCall(e.finishWrite)
	e.onMemRead = protocol.MsgCall(e.memRead)
	e.onHomeServe = protocol.MsgCall(e.homeServe)
	pipeline := cfg.BasePipeline + cfg.TreePipeline
	if cfg.AboveNetworkTree {
		// The tree cache sits at the network interface: every hop's
		// lookup ejects the packet, pays the cache access (DirLatency)
		// and re-enters for a second router pass.
		pipeline = 2*cfg.BasePipeline + cfg.DirLatency
	}
	e.topo = cfg.Topology.Build()
	e.deg = e.topo.Degree()
	mesh := network.Build(m.Kernel, network.Config{
		Topo:     e.topo,
		Pipeline: pipeline,
		Policy:   e,
		Clone:    protocol.CloneMsg,
	})
	mesh.RecycleFn = e.recycleHop
	m.AttachEngine(e, mesh)
	return e
}

// Tree exposes a node's virtual tree cache for tests and invariant checks.
func (e *Engine) Tree(node int) *cache.Cache[TreeLine] { return e.trees[node] }

// nextGen stamps a freshly (re)initialized tree line at node.
func (e *Engine) nextGen(node int) uint64 {
	e.genCounters[node]++
	return e.genCounters[node]
}

// replicate schedules an above-network install of the reply's data at an
// intermediate tree node (the paper's Section 4 replication extension).
// The install validates the line generation so a recycled line is never
// written with stale data; it runs off the critical path.
func (e *Engine) replicate(node int, addr uint64, version uint64, gen uint64) {
	e.m.NICSchedule(node, e.m.Cfg.L2Latency, func() {
		line, ok := e.trees[node].Peek(addr)
		if !ok || line.Touched || line.LocalValid || line.Gen != gen {
			return
		}
		e.m.InstallLine(node, addr, protocol.Shared, version, e.m.Kernel.Now())
		line.LocalValid = true
		e.m.Counters.Inc(stats.TreeReplicas, 1)
	})
}

func (e *Engine) home(addr uint64) int { return e.m.Home(addr) }

// ctrlPacket wraps msg in a single-flit (or data-sized) packet originating
// at src. Dst is advisory: the tree protocol routes per hop.
func (e *Engine) packet(src int, msg *protocol.Msg) *network.Packet {
	return e.m.NewPacket(src, e.home(msg.Addr), msg)
}

// StartMiss implements protocol.Engine.
func (e *Engine) StartMiss(node int, addr uint64, write bool, now int64) {
	t := protocol.RdReq
	if write {
		t = protocol.WrReq
		e.m.Counters.Inc(stats.TreeWrReqs, 1)
	} else {
		e.m.Counters.Inc(stats.TreeRdReqs, 1)
	}
	// Note: the paper's outstanding-request bit covers the whole
	// request/reply window; this implementation sets it only when the
	// reply anchors the requester's line (see replyAtRequester), because
	// the teardown ack-hold it gates must cover only the bounded
	// above-network completion window — holding for a request that is
	// still traveling could make a teardown wait on itself.
	msg := &protocol.Msg{Type: t, Addr: addr, Requester: node, IssuedAt: now,
		Attempt: e.m.CurrentAttempt(node)}
	e.m.Mesh.Inject(node, e.packet(node, msg), now)
}

// Eject implements protocol.Engine: above-network data-cache work. Tree
// cache manipulation happens in-network (Route); only data access, memory
// access and grant processing come up through the NIC, exactly as the
// paper's Section 2.3 prescribes.
func (e *Engine) Eject(node int, p *network.Packet, now int64) {
	msg := p.Payload.(*protocol.Msg)
	cfg := &e.m.Cfg
	switch msg.Type {
	case protocol.RdReq:
		e.m.NICCall(node, e.serviceTime(node, msg.Addr), e.onServeRead, msg)
	case protocol.WrReq:
		e.m.NICCall(node, e.serviceTime(node, msg.Addr), e.onGrantWrite, msg)
	case protocol.RdReply:
		e.m.NICCall(node, cfg.L2Latency, e.onFinishRead, msg)
	case protocol.WrReply:
		e.m.NICCall(node, cfg.L2Latency, e.onFinishWrite, msg)
	default:
		panic("treecc: unexpected ejected message " + msg.Type.String())
	}
}

// serviceTime returns the NIC service occupancy for an ejected request: a
// full data-cache access when the node's L2 holds the line (a sharer serve,
// a victim hit or a victim invalidation), or just the interface processing
// time when the access is a probe miss that proceeds to memory or an
// immediate grant.
func (e *Engine) serviceTime(node int, addr uint64) int64 {
	if _, present := e.m.PeekLine(node, addr); present {
		return e.m.Cfg.L2Latency
	}
	return e.m.Cfg.DirLatency
}

// serveRead runs at a node whose router steered a read request to the local
// ejection port: either a tree node holding valid data, or the home node of
// a line with no tree.
func (e *Engine) serveRead(node int, msg *protocol.Msg) {
	now := e.m.Kernel.Now()
	addr := msg.Addr
	if line, ok := e.trees[node].Peek(addr); ok && !line.Touched && line.LocalValid {
		dl, present := e.m.PeekLine(node, addr)
		if !present {
			// The data raced away between steering and access;
			// LocalValid is stale only within this window. Repair
			// and retry toward home.
			line.LocalValid = false
			e.m.Mesh.Spawn(node, e.packet(node, msg), now)
			return
		}
		if dl.State == protocol.Modified {
			// MSI: a read of a dirty line writes it back (M -> S).
			if !e.hasBug(BugLostWriteback) {
				e.m.Mem.Writeback(addr, dl.Version)
			}
			dl.State = protocol.Shared
		}
		e.m.Check.SampleRead(addr, dl.Version, e.m.Mem.Peek(addr), msg.Requester, now)
		e.m.Counters.Inc(stats.TreeSharerServes, 1)
		if e.m.Metrics != nil {
			// Hops saved versus routing the request to the home node
			// (can be negative when the serving sharer is farther).
			saved := int64(e.topo.Dist(msg.Requester, e.home(addr)) -
				e.topo.Dist(msg.Requester, node))
			e.m.Metrics.Add(stats.MetricHopsSaved, saved)
			e.m.Metrics.Event(now, metrics.EvSharerServe, int16(node), addr, saved)
		}
		reply := &protocol.Msg{Type: protocol.RdReply, Addr: addr, Requester: msg.Requester,
			Version: dl.Version, IssuedAt: msg.IssuedAt, DeadlockCycles: msg.DeadlockCycles,
			Attempt: msg.Attempt}
		e.m.Mesh.Spawn(node, e.packet(node, reply), now)
		return
	}
	if !msg.HomeServe {
		// This ejection was a tree-data serve, but the tree line
		// vanished while the request was above the network (a
		// teardown swept past): re-route. Only a request holding the
		// home-serve marker may serve from victim data or memory.
		e.m.Counters.Inc(stats.TreeServeRaces, 1)
		e.m.Mesh.Spawn(node, e.packet(node, msg), now)
		return
	}
	// Home-node serve: victim copy or main memory (pending[addr] was set
	// when the router steered us here).
	if e.m.Cfg.VictimCaching {
		if _, present := e.m.PeekLine(node, addr); present {
			// Requirement 2: serving from the victimized copy
			// invalidates it.
			line, ok := e.m.InvalidateLine(node, addr, now)
			if ok {
				e.m.Counters.Inc(stats.TreeVictimHits, 1)
				e.m.Check.SampleRead(addr, line.Version, e.m.Mem.Peek(addr), msg.Requester, now)
				e.injectHomeReply(node, msg, protocol.RdReply, line.Version)
				return
			}
		}
	}
	e.m.Counters.Inc(stats.TreeMemReads, 1)
	e.m.Kernel.ScheduleCall(e.m.Cfg.MemLatency, e.onMemRead, node, msg)
}

// memRead completes a home serve from main memory.
func (e *Engine) memRead(home int, msg *protocol.Msg) {
	now := e.m.Kernel.Now()
	v := e.m.Mem.Read(msg.Addr)
	e.m.Check.SampleRead(msg.Addr, v, v, msg.Requester, now)
	e.injectHomeReply(home, msg, protocol.RdReply, v)
}

// grantWrite runs at the home node for a write to a line with no tree:
// Requirement 3 invalidates any victim copy in the home's L2, then the
// grant travels back constructing the writer's fresh tree.
func (e *Engine) grantWrite(node int, msg *protocol.Msg) {
	now := e.m.Kernel.Now()
	e.m.InvalidateLine(node, msg.Addr, now)
	e.injectHomeReply(node, msg, protocol.WrReply, 0)
}

// injectHomeReply sends a home-generated reply (fresh tree: the requester
// becomes root). The pending marker stays set until the reply actually
// constructs the home node's tree line (or gives up), so no other request
// can slip into the home-serve path before the new tree is anchored.
func (e *Engine) injectHomeReply(home int, req *protocol.Msg, t protocol.MsgType, version uint64) {
	now := e.m.Kernel.Now()
	reply := &protocol.Msg{Type: t, Addr: req.Addr, Requester: req.Requester, Version: version,
		RequesterIsRoot: true, IssuedAt: req.IssuedAt, DeadlockCycles: req.DeadlockCycles,
		Attempt: req.Attempt}
	e.m.Mesh.Spawn(home, e.packet(home, reply), now)
}

// finishRead completes a read at the requesting node: install the data and
// mark the tree line valid. If the line's tree was torn down while the
// reply was in its final hop, the data is used once and not cached.
func (e *Engine) finishRead(node int, msg *protocol.Msg) {
	now := e.m.Kernel.Now()
	if !e.hasBug(BugAcceptStaleReply) && e.m.DropStaleReply(node, msg) {
		e.dropStale(node, msg)
		return
	}
	if line, ok := e.trees[node].Peek(msg.Addr); ok && !line.Touched && line.OutstandingReq {
		e.m.InstallLine(node, msg.Addr, protocol.Shared, msg.Version, now)
		line.LocalValid = true
		line.OutstandingReq = false
	} else {
		e.m.Counters.Inc(stats.TreeUncachedCompletions, 1)
		e.releaseHeldAck(node, msg.Addr)
	}
	e.m.Check.ObserveRead(msg.Addr, msg.Version, node, now, false)
	e.m.CompleteAccess(node, false, now, msg.DeadlockCycles)
}

// dropStale discards a reply from an abandoned reissue epoch without
// completing any access or installing data, while still releasing the tree
// state the reply anchored: a fresh-tree line waiting on this reply has
// its outstanding-request bit cleared, and a held teardown acknowledgment
// is let through so the collapse the reply was blocking can finish.
func (e *Engine) dropStale(node int, msg *protocol.Msg) {
	if line, ok := e.trees[node].Peek(msg.Addr); ok && line.OutstandingReq {
		if line.Touched {
			e.releaseHeldAck(node, msg.Addr)
		} else {
			line.OutstandingReq = false
		}
	}
}

// releaseHeldAck resumes a collapse that was held at node for the local
// completion (the outstanding-request bit) now landing.
func (e *Engine) releaseHeldAck(node int, addr uint64) {
	line, ok := e.trees[node].Peek(addr)
	if !ok || !line.Touched || !line.OutstandingReq {
		return
	}
	line.OutstandingReq = false
	if line.LinkCount() == 0 {
		// A held single-node tree (or all acks already arrived).
		e.trees[node].Invalidate(addr)
		if node == e.home(addr) {
			e.teardownComplete(addr)
		}
		return
	}
	e.collapse(node, addr, line)
}

// finishWrite completes a write at the requesting node: the write
// serializes here, after the grant that followed the full teardown.
func (e *Engine) finishWrite(node int, msg *protocol.Msg) {
	now := e.m.Kernel.Now()
	if !e.hasBug(BugAcceptStaleReply) && e.m.DropStaleReply(node, msg) {
		e.dropStale(node, msg)
		return
	}
	v := e.m.Check.CommitWrite(msg.Addr, node, now)
	if line, ok := e.trees[node].Peek(msg.Addr); ok && !line.Touched && line.OutstandingReq {
		e.m.InstallLine(node, msg.Addr, protocol.Modified, v, now)
		line.LocalValid = true
		line.OutstandingReq = false
	} else {
		// The fresh tree is already being torn down (e.g. a proactive
		// eviction raced the grant): complete write-through so the
		// system never holds unanchored dirty data. The held
		// acknowledgment below guarantees this commit serialized
		// before the teardown completed at the home node.
		if !e.hasBug(BugLostWriteback) {
			e.m.Mem.Writeback(msg.Addr, v)
		}
		e.m.Counters.Inc(stats.TreeUncachedCompletions, 1)
		e.releaseHeldAck(node, msg.Addr)
	}
	e.m.CompleteAccess(node, true, now, msg.DeadlockCycles)
}

// OnL2Evict implements protocol.Engine. Evicting the root's data tears the
// tree down (the root anchors the line's data); evicting an intermediate
// sharer's data just clears its LocalValid bit.
func (e *Engine) OnL2Evict(node int, addr uint64, dl protocol.DataLine, now int64) {
	line, ok := e.trees[node].Peek(addr)
	if !ok || !line.LocalValid {
		return
	}
	line.LocalValid = false
	if !line.IsRoot || line.Touched {
		return
	}
	e.rootData[addr] = dl.Version
	e.processTeardown(node, addr, network.DirNone, false)
}

// Quiesced implements protocol.Engine.
func (e *Engine) Quiesced() bool { return e.queued == 0 }

// MetricsGauges implements metrics.GaugeSource: total live tree-cache lines
// across all routers, and the queued-request backlog (home queue + pending
// serialization + backoff waits).
func (e *Engine) MetricsGauges() (occupancy, queueDepth int) {
	for _, t := range e.trees {
		occupancy += t.Len()
	}
	return occupancy, e.queued
}

// --- pending / home-queue management -----------------------------------
//
// All of these run at an address's home node (route phase at the home's
// router, or event-phase home work).

func (e *Engine) setPending(addr uint64) {
	p := e.pending[e.home(addr)]
	if _, ok := p[addr]; !ok {
		p[addr] = nil
	}
}

func (e *Engine) queueOnPending(addr uint64, msg *protocol.Msg) {
	p := e.pending[e.home(addr)]
	p[addr] = append(p[addr], msg)
	e.queued++
}

func (e *Engine) releasePending(addr uint64, home int) {
	p := e.pending[home]
	waiters, ok := p[addr]
	if !ok {
		return
	}
	delete(p, addr)
	now := e.m.Kernel.Now()
	for _, w := range waiters {
		e.queued--
		e.m.Mesh.Spawn(home, e.packet(home, w), now)
	}
}

func (e *Engine) queueAtHome(addr uint64, msg *protocol.Msg) {
	home := e.home(addr)
	q := e.homeQueue[home]
	q[addr] = append(q[addr], msg)
	e.queued++
	e.m.Metrics.Event(e.m.Kernel.Now(), metrics.EvHomeQueued, int16(home), addr, int64(msg.Requester))
}

// teardownComplete runs when the home node's last virtual link clears: the
// tree is fully gone. Victim-cache the root's data at the home L2 and
// release requests queued behind the teardown.
func (e *Engine) teardownComplete(addr uint64) {
	home := e.home(addr)
	now := e.m.Kernel.Now()
	if v, ok := e.rootData[addr]; ok {
		delete(e.rootData, addr)
		if e.m.Cfg.VictimCaching {
			e.m.InstallLine(home, addr, protocol.Shared, v, now)
		}
	}
	e.m.Counters.Inc(stats.TreeTeardownsCompleted, 1)
	waiters := e.homeQueue[home][addr]
	delete(e.homeQueue[home], addr)
	e.m.Metrics.Event(now, metrics.EvTeardownComplete, int16(home), addr, int64(len(waiters)))
	if len(waiters) == 0 {
		return
	}
	// The first queued request proceeds at the home node immediately (it
	// has been waiting here, already routed); the rest serialize behind
	// it on the pending marker.
	first := waiters[0]
	e.queued--
	e.setPending(addr)
	first.HomeServe = true
	if e.m.Metrics != nil {
		for _, w := range waiters {
			e.m.Metrics.Event(now, metrics.EvHomeDrained, int16(home), addr, int64(w.Requester))
		}
	}
	e.m.Kernel.DeferCall(1, e.onHomeServe, home, first)
	for _, w := range waiters[1:] {
		e.queued--
		e.queueOnPending(addr, w)
	}
}

// homeServe runs a request released from the home queue at its home.
func (e *Engine) homeServe(home int, msg *protocol.Msg) {
	if msg.Type == protocol.WrReq {
		e.grantWrite(home, msg)
	} else {
		e.serveRead(home, msg)
	}
}
