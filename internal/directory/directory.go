// Package directory implements the baseline MSI directory cache coherence
// protocol the paper compares against: a full-map directory cache at every
// node's network interface, three-hop reads (requester -> home -> sharer ->
// requester), home-serialized writes with invalidation/acknowledgment
// collection, and the same victim-caching optimization at the home node's
// L2 that the in-network protocol gets (Section 2.1 gives it to the
// baseline "to ensure a fair comparison").
//
// The network is a pure communication medium here: every packet follows the
// fabric's deterministic minimal route to its destination (X-Y on the mesh),
// and all protocol work happens above the network at the NICs, paying the
// directory-access and ejection/re-injection costs the paper charges the
// baseline (Section 3.1). With Config.Multicast armed, invalidation rounds
// ride single destination-set packets the routers fork in-network instead
// of one unicast packet per target.
package directory

import (
	"math/bits"

	"innetcc/internal/cache"
	"innetcc/internal/metrics"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/stats"
)

// dirEntry is one directory cache entry: a full-map sharer vector plus the
// transient state of an in-flight transaction.
type dirEntry struct {
	sharers  uint64 // bitset of nodes holding (or about to hold) the line
	owner    int
	modified bool

	busy        bool // a read forward or write invalidation is in flight
	evicting    bool // entry being torn down to free the way
	pendingAcks int
	pendingWr   *protocol.Msg   // write awaiting invalidation acks
	queue       []*protocol.Msg // requests serialized behind busy/evicting
}

// bit is node n's sharer bit. protocol.Spec.Validate keeps n below
// protocol.MaxDirectoryNodes, so the bitset never drops a node.
func bit(n int) uint64 { return 1 << uint(n) }

// Engine is the baseline protocol engine.
type Engine struct {
	m    *protocol.Machine
	dirs []*cache.Cache[dirEntry]

	// pendingInval marks (node, addr) pairs where an invalidation
	// arrived while the node's read for that line was still in flight;
	// the reply data is then used once and not cached.
	pendingInval []map[uint64]bool

	// parked holds requests waiting for an allocatable directory way at
	// each home; they retry whenever an entry is removed.
	parked [][]*protocol.Msg

	queued int // queued + parked requests, for Quiesced

	// HopRecorder, when set, receives the baseline and oracle-ideal hop
	// counts of every coherence access at issue time (the Section 1
	// hop-count study).
	HopRecorder func(write bool, baseHops, idealHops int)

	// Kernel callbacks bound once in New: each runs a handler on (node,
	// message), so the per-message NIC dispatches and memory fetches
	// schedule without building a closure.
	onReq, onFwd, onInv, onRdReply, onWrReply, onVictimRead, onMemRead func(int, any)
}

func init() {
	protocol.RegisterEngineBuilder(protocol.KindDirectory,
		func(m *protocol.Machine) protocol.Engine { return New(m) })
}

// New builds the baseline engine on machine m, constructing the fabric from
// the configured topology with the baseline pipeline depth and plain
// destination routing.
func New(m *protocol.Machine) *Engine {
	cfg := m.Cfg
	e := &Engine{m: m}
	for i := 0; i < cfg.Nodes(); i++ {
		e.dirs = append(e.dirs, cache.New[dirEntry](cfg.DirEntries, cfg.DirWays))
		e.pendingInval = append(e.pendingInval, make(map[uint64]bool))
	}
	e.parked = make([][]*protocol.Msg, cfg.Nodes())
	e.onReq = protocol.MsgCall(e.handleReq)
	e.onFwd = protocol.MsgCall(e.handleFwd)
	e.onInv = protocol.MsgCall(e.handleInv)
	e.onRdReply = protocol.MsgCall(e.handleRdReply)
	e.onWrReply = protocol.MsgCall(e.handleWrReply)
	e.onVictimRead = protocol.MsgCall(e.victimRead)
	e.onMemRead = protocol.MsgCall(e.memRead)
	mesh := network.Build(m.Kernel, network.Config{
		Topo:     cfg.Topology.Build(),
		Pipeline: cfg.BasePipeline,
		Policy:   network.DestPolicy{},
		Clone:    m.CloneMsg,
	})
	m.AttachEngine(e, mesh)
	return e
}

// Dir exposes a node's directory cache for tests and the hop study.
func (e *Engine) Dir(node int) *cache.Cache[dirEntry] { return e.dirs[node] }

func (e *Engine) send(src, dst int, msg *protocol.Msg, now int64) {
	e.m.Mesh.Inject(src, e.m.NewPacket(src, dst, msg), now)
}

// StartMiss implements protocol.Engine.
func (e *Engine) StartMiss(node int, addr uint64, write bool, now int64) {
	if e.HopRecorder != nil {
		e.recordHops(node, addr, write)
	}
	t := protocol.RdReq
	if write {
		t = protocol.WrReq
	}
	msg := e.m.NewMsg(protocol.Msg{Type: t, Addr: addr, Requester: node, IssuedAt: now,
		Attempt: e.m.CurrentAttempt(node)})
	e.send(node, e.m.Home(addr), msg, now)
}

// Eject implements protocol.Engine: protocol handling at the NICs, with the
// directory-access and L2-access service times of Table 2.
func (e *Engine) Eject(node int, p *network.Packet, now int64) {
	msg := p.Payload.(*protocol.Msg)
	src := p.Src
	cfg := &e.m.Cfg
	switch msg.Type {
	case protocol.RdReq, protocol.WrReq:
		e.m.NICCall(node, cfg.DirLatency, e.onReq, msg)
	case protocol.Fwd:
		e.m.NICCall(node, cfg.L2Latency, e.onFwd, msg)
	case protocol.Inv:
		e.m.NICCall(node, cfg.L2Latency, e.onInv, msg)
	case protocol.InvAck:
		e.handleInvAck(node, msg)
	case protocol.FwdDone:
		e.handleFwdDone(node, msg, src)
	case protocol.FwdMiss:
		e.handleFwdMiss(node, msg, src)
	case protocol.WbNotice:
		e.handleWbNotice(node, msg)
	case protocol.RdReply:
		e.m.NICCall(node, cfg.L2Latency, e.onRdReply, msg)
	case protocol.WrReply:
		e.m.NICCall(node, cfg.L2Latency, e.onWrReply, msg)
	default:
		panic("directory: unexpected message " + msg.Type.String())
	}
}

// handleReq runs at the home node after the directory access latency. A
// read the home forwards becomes the forward; a request it serves becomes
// the reply (finishRead, grantWrite).
func (e *Engine) handleReq(home int, msg *protocol.Msg) {
	d := e.dirs[home]
	now := e.m.Kernel.Now()
	ep, ok := d.Lookup(msg.Addr)
	if ok && (ep.busy || ep.evicting) {
		ep.queue = append(ep.queue, msg)
		e.queued++
		return
	}
	if msg.Type == protocol.RdReq {
		switch {
		case ok && ep.modified:
			ep.busy = true
			e.m.Counters.Inc(stats.DirFwds, 1)
			e.m.Metrics.Add(stats.MetricDirFwd, 1)
			e.m.Metrics.Event(now, metrics.EvDirFwd, int16(home), msg.Addr, int64(ep.owner))
			e.forward(home, ep.owner, msg, now)
		case ok && ep.sharers != 0:
			ep.busy = true
			e.m.Counters.Inc(stats.DirFwds, 1)
			e.m.Metrics.Add(stats.MetricDirFwd, 1)
			e.m.Metrics.Event(now, metrics.EvDirFwd, int16(home), msg.Addr, int64(firstSharer(ep.sharers)))
			e.forward(home, firstSharer(ep.sharers), msg, now)
		default:
			if !ok {
				if ep = e.allocEntry(home, msg); ep == nil {
					return // parked
				}
			}
			e.serveFromHomeOrMemory(home, msg, ep)
		}
		return
	}
	// Write request.
	if !ok {
		if ep = e.allocEntry(home, msg); ep == nil {
			return
		}
	}
	targets := ep.sharers &^ bit(msg.Requester)
	if ep.modified && ep.owner != msg.Requester {
		targets |= bit(ep.owner)
	}
	if targets == 0 {
		e.grantWrite(home, msg, ep)
		return
	}
	ep.busy = true
	ep.pendingWr = msg
	ep.pendingAcks = bits.OnesCount64(targets)
	e.sendInvs(home, targets, msg.Addr, msg.Requester, now)
}

// forward rewrites read request msg as the forward that asks node to serve
// it and sends it there. A forward carries no issue or recovery cycles.
func (e *Engine) forward(home, node int, msg *protocol.Msg, now int64) {
	*msg = protocol.Msg{Type: protocol.Fwd, Addr: msg.Addr, Requester: msg.Requester, Attempt: msg.Attempt}
	e.send(home, node, msg, now)
}

// sendInvs delivers an invalidation to every node in the targets bitset.
// Per-target invalidation metrics (MetricDirInval, the per-node events) are
// recorded identically on both paths — the protocol work is the same — but
// the network traffic differs: without multicast each target costs one
// unicast Inv packet; with Config.Multicast armed the whole round rides ONE
// destination-set packet the routers fork at fan-out points. The
// DirInvPackets counter records injected invalidation packets, which is
// the quantity hardware multicast shrinks.
func (e *Engine) sendInvs(home int, targets uint64, addr uint64, requester int, now int64) {
	for rest := targets; rest != 0; rest &= rest - 1 {
		n := bits.TrailingZeros64(rest)
		e.m.Metrics.Add(stats.MetricDirInval, 1)
		e.m.Metrics.Event(now, metrics.EvDirInval, int16(home), addr, int64(n))
	}
	count := bits.OnesCount64(targets)
	if count == 0 {
		return
	}
	e.m.Counters.Inc(stats.DirInvals, int64(count))
	if e.m.Cfg.Multicast && count > 1 {
		// Only the multicast packet needs the targets as a NodeSet;
		// unicast rounds build none.
		var set network.NodeSet
		for rest := targets; rest != 0; rest &= rest - 1 {
			set = set.Add(bits.TrailingZeros64(rest))
		}
		e.m.Counters.Inc(stats.DirInvPackets, 1)
		p := e.m.NewPacket(home, set.Min(), e.m.NewMsg(protocol.Msg{Type: protocol.Inv, Addr: addr, Requester: requester}))
		p.DstSet = set
		e.m.Mesh.Inject(home, p, now)
		return
	}
	e.m.Counters.Inc(stats.DirInvPackets, int64(count))
	for rest := targets; rest != 0; rest &= rest - 1 {
		n := bits.TrailingZeros64(rest)
		e.send(home, n, e.m.NewMsg(protocol.Msg{Type: protocol.Inv, Addr: addr, Requester: requester}), now)
	}
}

// serveFromHomeOrMemory answers a read for a line with no cached copies:
// from the home node's L2 victim copy if present (invalidating it per
// sequential-consistency Requirement 2), else from main memory.
func (e *Engine) serveFromHomeOrMemory(home int, msg *protocol.Msg, ep *dirEntry) {
	cfg := &e.m.Cfg
	ep.busy = true
	if cfg.VictimCaching {
		if _, present := e.m.PeekLine(home, msg.Addr); present {
			e.m.Counters.Inc(stats.DirVictimHits, 1)
			e.m.Kernel.ScheduleCall(cfg.L2Latency, e.onVictimRead, home, msg)
			return
		}
	}
	e.serveFromMemory(home, msg)
}

// victimRead reads the home's victim copy, one L2 access after the peek
// that found it.
func (e *Engine) victimRead(home int, msg *protocol.Msg) {
	now := e.m.Kernel.Now()
	line, ok := e.m.InvalidateLine(home, msg.Addr, now)
	if ok {
		e.m.Check.SampleRead(msg.Addr, line.Version, e.m.Mem.Peek(msg.Addr), msg.Requester, now)
		e.finishRead(home, msg, line.Version)
		return
	}
	// The victim vanished between peek and access (concurrent
	// eviction); fall back to memory.
	e.serveFromMemory(home, msg)
}

func (e *Engine) serveFromMemory(home int, msg *protocol.Msg) {
	e.m.Counters.Inc(stats.DirMemReads, 1)
	e.m.Kernel.ScheduleCall(e.m.Cfg.MemLatency, e.onMemRead, home, msg)
}

// memRead completes a memory fetch for msg at home.
func (e *Engine) memRead(home int, msg *protocol.Msg) {
	now := e.m.Kernel.Now()
	v := e.m.Mem.Read(msg.Addr)
	e.m.Check.SampleRead(msg.Addr, v, v, msg.Requester, now)
	e.finishRead(home, msg, v)
}

// finishRead completes home-side read handling: record the requester as a
// sharer, release the entry and send the data. The request becomes the
// reply.
func (e *Engine) finishRead(home int, msg *protocol.Msg, version uint64) {
	now := e.m.Kernel.Now()
	addr := msg.Addr
	ep, ok := e.dirs[home].Lookup(addr)
	if !ok {
		// The entry was evicted while the data access was in flight;
		// reallocate (or retry later if the set is saturated).
		if ep = e.allocEntry(home, msg); ep == nil {
			return
		}
	}
	ep.sharers |= bit(msg.Requester)
	ep.busy = false
	msg.Become(protocol.RdReply, version)
	e.send(home, msg.Requester, msg, now)
	e.drainQueue(home, addr, ep)
}

// grantWrite gives msg.Requester exclusive ownership. Requirement 3: any
// valid copy in the home's local L2 (the victim cache) is invalidated. The
// request becomes the reply.
func (e *Engine) grantWrite(home int, msg *protocol.Msg, ep *dirEntry) {
	now := e.m.Kernel.Now()
	addr := msg.Addr
	if home != msg.Requester {
		e.m.InvalidateLine(home, addr, now)
	}
	ep.sharers = bit(msg.Requester)
	ep.owner = msg.Requester
	ep.modified = true
	ep.busy = false
	ep.pendingWr = nil
	msg.Become(protocol.WrReply, 0)
	e.send(home, msg.Requester, msg, now)
	e.drainQueue(home, addr, ep)
}

// handleFwd runs at a sharer/owner asked to supply data to msg.Requester.
// The forward becomes the miss notice to home, or the reply to the
// requester beside a fresh completion notice to home.
func (e *Engine) handleFwd(node int, msg *protocol.Msg) {
	now := e.m.Kernel.Now()
	home := e.m.Home(msg.Addr)
	line, ok := e.m.PeekLine(node, msg.Addr)
	if !ok {
		msg.Type = protocol.FwdMiss
		e.send(node, home, msg, now)
		return
	}
	if line.State == protocol.Modified {
		// Read of a dirty line writes it back (MSI M->S on read).
		e.m.Mem.Writeback(msg.Addr, line.Version)
		line.State = protocol.Shared
	}
	e.m.Check.SampleRead(msg.Addr, line.Version, e.m.Mem.Peek(msg.Addr), msg.Requester, now)
	done := e.m.NewMsg(protocol.Msg{Type: protocol.FwdDone, Addr: msg.Addr, Requester: msg.Requester})
	msg.Become(protocol.RdReply, line.Version)
	e.send(node, msg.Requester, msg, now)
	e.send(node, home, done, now)
}

// handleFwdDone runs at home when a forwarded read was served by src.
func (e *Engine) handleFwdDone(home int, msg *protocol.Msg, src int) {
	addr, requester := msg.Addr, msg.Requester
	e.m.FreeMsg(msg)
	ep, ok := e.dirs[home].Lookup(addr)
	if !ok {
		return
	}
	if ep.modified && ep.owner == src {
		ep.modified = false
	}
	ep.sharers |= bit(src) | bit(requester)
	ep.busy = false
	e.drainQueue(home, addr, ep)
}

// handleFwdMiss runs at home when the forwarded-to node had silently
// evicted the line: drop the stale sharer and retry the read. The notice
// becomes the retried request.
func (e *Engine) handleFwdMiss(home int, msg *protocol.Msg, src int) {
	e.m.Counters.Inc(stats.DirFwdMisses, 1)
	ep, ok := e.dirs[home].Lookup(msg.Addr)
	if ok {
		ep.sharers &^= bit(src)
		if ep.modified && ep.owner == src {
			ep.modified = false
		}
		ep.busy = false
	}
	msg.Become(protocol.RdReq, 0)
	e.handleReq(home, msg)
}

// handleInv runs at a sharer told to invalidate. The invalidation becomes
// the acknowledgment.
func (e *Engine) handleInv(node int, msg *protocol.Msg) {
	now := e.m.Kernel.Now()
	home := e.m.Home(msg.Addr)
	msg.Become(protocol.InvAck, 0)
	if line, ok := e.m.InvalidateLine(node, msg.Addr, now); ok {
		msg.Version = line.Version
		msg.HasData = true
	} else if a, w, pend := e.m.OutstandingAddr(node); pend && a == msg.Addr && !w {
		// Invalidation raced the node's own in-flight read: use the
		// returning data once, do not cache it.
		e.pendingInval[node][msg.Addr] = true
	}
	e.send(node, home, msg, now)
}

// handleInvAck runs at home collecting invalidation acknowledgments for a
// write grant or a directory-entry eviction.
func (e *Engine) handleInvAck(home int, msg *protocol.Msg) {
	addr, hasData, version := msg.Addr, msg.HasData, msg.Version
	e.m.FreeMsg(msg)
	ep, ok := e.dirs[home].Lookup(addr)
	if !ok {
		return
	}
	if ep.pendingAcks > 0 {
		ep.pendingAcks--
	}
	if ep.evicting && hasData && e.m.Cfg.VictimCaching {
		// Victim-cache the displaced data at the home node.
		e.m.InstallLine(home, addr, protocol.Shared, version, e.m.Kernel.Now())
	}
	if ep.pendingAcks > 0 {
		return
	}
	if ep.evicting {
		e.removeEntry(home, addr, ep)
		return
	}
	if ep.pendingWr != nil {
		e.grantWrite(home, ep.pendingWr, ep)
	}
}

// handleWbNotice runs at home when an owner evicted its dirty line.
func (e *Engine) handleWbNotice(home int, msg *protocol.Msg) {
	addr, owner, version := msg.Addr, msg.Requester, msg.Version
	e.m.FreeMsg(msg)
	ep, ok := e.dirs[home].Lookup(addr)
	if !ok {
		return
	}
	if ep.modified && ep.owner == owner {
		ep.modified = false
		ep.sharers &^= bit(owner)
		if e.m.Cfg.VictimCaching && !ep.busy && !ep.evicting {
			e.m.InstallLine(home, addr, protocol.Shared, version, e.m.Kernel.Now())
		}
	}
}

// handleRdReply completes a read at the requester and frees the reply.
func (e *Engine) handleRdReply(node int, msg *protocol.Msg) {
	defer e.m.FreeMsg(msg)
	if e.m.DropStaleReply(node, msg) {
		return // reply of an abandoned reissue epoch; the live one completes
	}
	now := e.m.Kernel.Now()
	if e.pendingInval[node][msg.Addr] {
		delete(e.pendingInval[node], msg.Addr)
		e.m.Check.ObserveRead(msg.Addr, msg.Version, node, now, false)
	} else {
		e.m.InstallLine(node, msg.Addr, protocol.Shared, msg.Version, now)
		e.m.Check.ObserveRead(msg.Addr, msg.Version, node, now, false)
	}
	e.m.CompleteAccess(node, false, now, msg.DeadlockCycles)
}

// handleWrReply completes a write at the requester: the write serializes
// here, after all invalidations were acknowledged. It frees the reply.
func (e *Engine) handleWrReply(node int, msg *protocol.Msg) {
	defer e.m.FreeMsg(msg)
	if e.m.DropStaleReply(node, msg) {
		return // must not CommitWrite twice: each access commits exactly once
	}
	now := e.m.Kernel.Now()
	delete(e.pendingInval[node], msg.Addr)
	v := e.m.Check.CommitWrite(msg.Addr, node, now)
	e.m.InstallLine(node, msg.Addr, protocol.Modified, v, now)
	e.m.CompleteAccess(node, true, now, msg.DeadlockCycles)
}

// allocEntry allocates a directory entry for msg.Addr at home, evicting the
// LRU non-busy entry of the set if necessary (invalidating its sharers
// first). It returns nil if msg had to be parked until a way frees.
func (e *Engine) allocEntry(home int, msg *protocol.Msg) *dirEntry {
	d := e.dirs[home]
	if ep, ok := d.InsertNoEvict(msg.Addr); ok {
		return ep
	}
	now := e.m.Kernel.Now()
	vaddr, vep, ok := d.LRUVictim(msg.Addr, func(_ uint64, v *dirEntry) bool {
		return !v.busy && !v.evicting
	})
	if !ok {
		// Every way is mid-transaction; transactions always settle, so
		// poll again shortly.
		e.queued++
		e.m.Kernel.Schedule(8, func() {
			e.queued--
			e.handleReq(home, msg)
		})
		return nil
	}
	e.m.Counters.Inc(stats.DirEvictions, 1)
	vep.evicting = true
	targets := vep.sharers
	if vep.modified {
		targets |= bit(vep.owner)
	}
	if targets == 0 {
		e.removeEntry(home, vaddr, vep)
		if ep, ok := d.InsertNoEvict(msg.Addr); ok {
			return ep
		}
		// Defensive: the freed way was taken out from under us; retry.
		e.queued++
		e.m.Kernel.Schedule(2, func() {
			e.queued--
			e.handleReq(home, msg)
		})
		return nil
	}
	vep.pendingAcks = bits.OnesCount64(targets)
	e.sendInvs(home, targets, vaddr, 0, now)
	e.parked[home] = append(e.parked[home], msg)
	e.queued++
	return nil
}

// removeEntry deletes a directory entry, re-dispatches requests serialized
// on it and retries parked allocations.
func (e *Engine) removeEntry(home int, addr uint64, ep *dirEntry) {
	e.drainQueue(home, addr, ep)
	e.dirs[home].Invalidate(addr)
	e.parked[home] = e.redispatch(home, e.parked[home])
}

// drainQueue re-dispatches requests that serialized behind a busy entry.
func (e *Engine) drainQueue(home int, addr uint64, ep *dirEntry) {
	ep.queue = e.redispatch(home, ep.queue)
}

// redispatch hands each waiting request back to handleReq at home one
// cycle out and returns the emptied slice for reuse.
func (e *Engine) redispatch(home int, waiters []*protocol.Msg) []*protocol.Msg {
	for i, w := range waiters {
		e.queued--
		e.m.Kernel.ScheduleCall(1, e.onReq, home, w)
		waiters[i] = nil
	}
	return waiters[:0]
}

// OnL2Evict implements protocol.Engine: dirty owners notify home (the
// machine already wrote the data back); Shared lines evict silently.
func (e *Engine) OnL2Evict(node int, addr uint64, line protocol.DataLine, now int64) {
	if line.State != protocol.Modified {
		return
	}
	home := e.m.Home(addr)
	e.send(node, home, e.m.NewMsg(protocol.Msg{Type: protocol.WbNotice, Addr: addr, Requester: node, Version: line.Version}), now)
}

// Quiesced implements protocol.Engine.
func (e *Engine) Quiesced() bool { return e.queued == 0 }

// MetricsGauges implements metrics.GaugeSource: total live directory entries
// across all homes, and the queued/parked request backlog.
func (e *Engine) MetricsGauges() (occupancy, queueDepth int) {
	for _, d := range e.dirs {
		occupancy += d.Len()
	}
	return occupancy, e.queued
}

func firstSharer(set uint64) int {
	if set == 0 {
		return -1
	}
	return bits.TrailingZeros64(set)
}
