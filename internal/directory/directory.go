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
	"innetcc/internal/cache"
	"innetcc/internal/metrics"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
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
	mesh := network.Build(m.Kernel, network.Config{
		Topo:     cfg.Topology.Build(),
		Pipeline: cfg.BasePipeline,
		Policy:   network.DestPolicy{},
		Clone:    protocol.CloneMsg,
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
	msg := &protocol.Msg{Type: t, Addr: addr, Requester: node, IssuedAt: now,
		Attempt: e.m.CurrentAttempt(node)}
	e.send(node, e.m.Cfg.Home(addr), msg, now)
}

// Eject implements protocol.Engine: protocol handling at the NICs, with the
// directory-access and L2-access service times of Table 2.
func (e *Engine) Eject(node int, p *network.Packet, now int64) {
	msg := p.Payload.(*protocol.Msg)
	src := p.Src
	cfg := e.m.Cfg
	switch msg.Type {
	case protocol.RdReq, protocol.WrReq:
		e.m.NICSchedule(node, cfg.DirLatency, func() { e.handleReq(node, msg) })
	case protocol.Fwd:
		e.m.NICSchedule(node, cfg.L2Latency, func() { e.handleFwd(node, msg) })
	case protocol.Inv:
		e.m.NICSchedule(node, cfg.L2Latency, func() { e.handleInv(node, msg) })
	case protocol.InvAck:
		e.handleInvAck(node, msg)
	case protocol.FwdDone:
		e.handleFwdDone(node, msg, src)
	case protocol.FwdMiss:
		e.handleFwdMiss(node, msg, src)
	case protocol.WbNotice:
		e.handleWbNotice(node, msg)
	case protocol.RdReply:
		e.m.NICSchedule(node, cfg.L2Latency, func() { e.handleRdReply(node, msg) })
	case protocol.WrReply:
		e.m.NICSchedule(node, cfg.L2Latency, func() { e.handleWrReply(node, msg) })
	default:
		panic("directory: unexpected message " + msg.Type.String())
	}
}

// handleReq runs at the home node after the directory access latency.
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
			e.m.Counters.Inc("dir.fwds", 1)
			e.m.Metrics.Add(metrics.CDirFwd, 1)
			e.m.Metrics.Event(now, metrics.EvDirFwd, int16(home), msg.Addr, int64(ep.owner))
			e.send(home, ep.owner, &protocol.Msg{Type: protocol.Fwd, Addr: msg.Addr, Requester: msg.Requester, Attempt: msg.Attempt}, now)
		case ok && ep.sharers != 0:
			ep.busy = true
			e.m.Counters.Inc("dir.fwds", 1)
			e.m.Metrics.Add(metrics.CDirFwd, 1)
			e.m.Metrics.Event(now, metrics.EvDirFwd, int16(home), msg.Addr, int64(firstSharer(ep.sharers)))
			e.send(home, firstSharer(ep.sharers), &protocol.Msg{Type: protocol.Fwd, Addr: msg.Addr, Requester: msg.Requester, Attempt: msg.Attempt}, now)
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
	ep.pendingAcks = popcount(targets)
	e.sendInvs(home, targets, msg.Addr, msg.Requester, now)
}

// sendInvs delivers an invalidation to every node in the targets bitset.
// Per-target invalidation metrics (CDirInval, the per-node events) are
// recorded identically on both paths — the protocol work is the same — but
// the network traffic differs: without multicast each target costs one
// unicast Inv packet; with Config.Multicast armed the whole round rides ONE
// destination-set packet the routers fork at fan-out points. The
// "dir.inv_packets" counter records injected invalidation packets, which is
// the quantity hardware multicast shrinks.
func (e *Engine) sendInvs(home int, targets uint64, addr uint64, requester int, now int64) {
	var set network.NodeSet
	for n := 0; n < e.m.Cfg.Nodes(); n++ {
		if targets&bit(n) != 0 {
			e.m.Metrics.Add(metrics.CDirInval, 1)
			e.m.Metrics.Event(now, metrics.EvDirInval, int16(home), addr, int64(n))
			set = set.Add(n)
		}
	}
	count := set.Count()
	if count == 0 {
		return
	}
	e.m.Counters.Inc("dir.invals", int64(count))
	if e.m.Cfg.Multicast && count > 1 {
		e.m.Counters.Inc("dir.inv_packets", 1)
		p := e.m.NewPacket(home, set.Min(), &protocol.Msg{Type: protocol.Inv, Addr: addr, Requester: requester})
		p.DstSet = set
		e.m.Mesh.Inject(home, p, now)
		return
	}
	e.m.Counters.Inc("dir.inv_packets", int64(count))
	set.ForEach(func(n int) {
		e.send(home, n, &protocol.Msg{Type: protocol.Inv, Addr: addr, Requester: requester}, now)
	})
}

// serveFromHomeOrMemory answers a read for a line with no cached copies:
// from the home node's L2 victim copy if present (invalidating it per
// sequential-consistency Requirement 2), else from main memory.
func (e *Engine) serveFromHomeOrMemory(home int, msg *protocol.Msg, ep *dirEntry) {
	cfg := e.m.Cfg
	ep.busy = true
	if cfg.VictimCaching {
		if _, present := e.m.PeekLine(home, msg.Addr); present {
			e.m.Counters.Inc("dir.victim_hits", 1)
			e.m.Kernel.Schedule(cfg.L2Latency, func() {
				now := e.m.Kernel.Now()
				line, ok := e.m.InvalidateLine(home, msg.Addr, now)
				if ok {
					e.m.Check.SampleRead(msg.Addr, line.Version, e.m.Mem.Peek(msg.Addr), msg.Requester, now)
					e.finishRead(home, msg, line.Version)
					return
				}
				// The victim vanished between peek and access
				// (concurrent eviction); fall back to memory.
				e.serveFromMemory(home, msg)
			})
			return
		}
	}
	e.serveFromMemory(home, msg)
}

func (e *Engine) serveFromMemory(home int, msg *protocol.Msg) {
	e.m.Counters.Inc("dir.mem_reads", 1)
	e.m.Kernel.Schedule(e.m.Cfg.MemLatency, func() {
		now := e.m.Kernel.Now()
		v := e.m.Mem.Read(msg.Addr)
		e.m.Check.SampleRead(msg.Addr, v, v, msg.Requester, now)
		e.finishRead(home, msg, v)
	})
}

// finishRead completes home-side read handling: record the requester as a
// sharer, release the entry and send the data.
func (e *Engine) finishRead(home int, msg *protocol.Msg, version uint64) {
	now := e.m.Kernel.Now()
	ep, ok := e.dirs[home].Lookup(msg.Addr)
	if !ok {
		// The entry was evicted while the data access was in flight;
		// reallocate (or retry later if the set is saturated).
		if ep = e.allocEntry(home, msg); ep == nil {
			return
		}
	}
	ep.sharers |= bit(msg.Requester)
	ep.busy = false
	reply := &protocol.Msg{Type: protocol.RdReply, Addr: msg.Addr, Requester: msg.Requester,
		Version: version, IssuedAt: msg.IssuedAt, DeadlockCycles: msg.DeadlockCycles,
		Attempt: msg.Attempt}
	e.send(home, msg.Requester, reply, now)
	e.drainQueue(home, msg.Addr, ep)
}

// grantWrite gives msg.Requester exclusive ownership. Requirement 3: any
// valid copy in the home's local L2 (the victim cache) is invalidated.
func (e *Engine) grantWrite(home int, msg *protocol.Msg, ep *dirEntry) {
	now := e.m.Kernel.Now()
	if home != msg.Requester {
		e.m.InvalidateLine(home, msg.Addr, now)
	}
	ep.sharers = bit(msg.Requester)
	ep.owner = msg.Requester
	ep.modified = true
	ep.busy = false
	ep.pendingWr = nil
	reply := &protocol.Msg{Type: protocol.WrReply, Addr: msg.Addr, Requester: msg.Requester,
		IssuedAt: msg.IssuedAt, DeadlockCycles: msg.DeadlockCycles, Attempt: msg.Attempt}
	e.send(home, msg.Requester, reply, now)
	e.drainQueue(home, msg.Addr, ep)
}

// handleFwd runs at a sharer/owner asked to supply data to msg.Requester.
func (e *Engine) handleFwd(node int, msg *protocol.Msg) {
	now := e.m.Kernel.Now()
	home := e.m.Cfg.Home(msg.Addr)
	line, ok := e.m.PeekLine(node, msg.Addr)
	if !ok {
		e.send(node, home, &protocol.Msg{Type: protocol.FwdMiss, Addr: msg.Addr, Requester: msg.Requester, Attempt: msg.Attempt}, now)
		return
	}
	if line.State == protocol.Modified {
		// Read of a dirty line writes it back (MSI M->S on read).
		e.m.Mem.Writeback(msg.Addr, line.Version)
		line.State = protocol.Shared
	}
	e.m.Check.SampleRead(msg.Addr, line.Version, e.m.Mem.Peek(msg.Addr), msg.Requester, now)
	e.send(node, msg.Requester, &protocol.Msg{Type: protocol.RdReply, Addr: msg.Addr,
		Requester: msg.Requester, Version: line.Version, IssuedAt: msg.IssuedAt,
		Attempt: msg.Attempt}, now)
	e.send(node, home, &protocol.Msg{Type: protocol.FwdDone, Addr: msg.Addr, Requester: msg.Requester}, now)
}

// handleFwdDone runs at home when a forwarded read was served by src.
func (e *Engine) handleFwdDone(home int, msg *protocol.Msg, src int) {
	ep, ok := e.dirs[home].Lookup(msg.Addr)
	if !ok {
		return
	}
	if ep.modified && ep.owner == src {
		ep.modified = false
	}
	ep.sharers |= bit(src) | bit(msg.Requester)
	ep.busy = false
	e.drainQueue(home, msg.Addr, ep)
}

// handleFwdMiss runs at home when the forwarded-to node had silently
// evicted the line: drop the stale sharer and retry the read.
func (e *Engine) handleFwdMiss(home int, msg *protocol.Msg, src int) {
	e.m.Counters.Inc("dir.fwd_misses", 1)
	ep, ok := e.dirs[home].Lookup(msg.Addr)
	if ok {
		ep.sharers &^= bit(src)
		if ep.modified && ep.owner == src {
			ep.modified = false
		}
		ep.busy = false
	}
	retry := &protocol.Msg{Type: protocol.RdReq, Addr: msg.Addr, Requester: msg.Requester, IssuedAt: msg.IssuedAt, DeadlockCycles: msg.DeadlockCycles, Attempt: msg.Attempt}
	e.handleReq(home, retry)
}

// handleInv runs at a sharer told to invalidate.
func (e *Engine) handleInv(node int, msg *protocol.Msg) {
	now := e.m.Kernel.Now()
	home := e.m.Cfg.Home(msg.Addr)
	ack := &protocol.Msg{Type: protocol.InvAck, Addr: msg.Addr, Requester: msg.Requester}
	if line, ok := e.m.InvalidateLine(node, msg.Addr, now); ok {
		ack.Version = line.Version
		ack.HasData = true
	} else if a, w, pend := e.m.OutstandingAddr(node); pend && a == msg.Addr && !w {
		// Invalidation raced the node's own in-flight read: use the
		// returning data once, do not cache it.
		e.pendingInval[node][msg.Addr] = true
	}
	e.send(node, home, ack, now)
}

// handleInvAck runs at home collecting invalidation acknowledgments for a
// write grant or a directory-entry eviction.
func (e *Engine) handleInvAck(home int, msg *protocol.Msg) {
	ep, ok := e.dirs[home].Lookup(msg.Addr)
	if !ok {
		return
	}
	if ep.pendingAcks > 0 {
		ep.pendingAcks--
	}
	if ep.evicting && msg.HasData && e.m.Cfg.VictimCaching {
		// Victim-cache the displaced data at the home node.
		e.m.InstallLine(home, msg.Addr, protocol.Shared, msg.Version, e.m.Kernel.Now())
	}
	if ep.pendingAcks > 0 {
		return
	}
	if ep.evicting {
		e.removeEntry(home, msg.Addr, ep)
		return
	}
	if ep.pendingWr != nil {
		e.grantWrite(home, ep.pendingWr, ep)
	}
}

// handleWbNotice runs at home when an owner evicted its dirty line.
func (e *Engine) handleWbNotice(home int, msg *protocol.Msg) {
	ep, ok := e.dirs[home].Lookup(msg.Addr)
	if !ok {
		return
	}
	if ep.modified && ep.owner == msg.Requester {
		ep.modified = false
		ep.sharers &^= bit(msg.Requester)
		if e.m.Cfg.VictimCaching && !ep.busy && !ep.evicting {
			e.m.InstallLine(home, msg.Addr, protocol.Shared, msg.Version, e.m.Kernel.Now())
		}
	}
}

// handleRdReply completes a read at the requester.
func (e *Engine) handleRdReply(node int, msg *protocol.Msg) {
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
// here, after all invalidations were acknowledged.
func (e *Engine) handleWrReply(node int, msg *protocol.Msg) {
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
	e.m.Counters.Inc("dir.evictions", 1)
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
	vep.pendingAcks = popcount(targets)
	e.sendInvs(home, targets, vaddr, 0, now)
	e.parked[home] = append(e.parked[home], msg)
	e.queued++
	return nil
}

// removeEntry deletes a directory entry, re-dispatches requests serialized
// on it and retries parked allocations.
func (e *Engine) removeEntry(home int, addr uint64, ep *dirEntry) {
	waiters := ep.queue
	ep.queue = nil
	e.dirs[home].Invalidate(addr)
	for _, w := range waiters {
		w := w
		e.queued--
		e.m.Kernel.Schedule(1, func() { e.handleReq(home, w) })
	}
	if len(e.parked[home]) > 0 {
		parked := e.parked[home]
		e.parked[home] = nil
		for _, pmsg := range parked {
			pmsg := pmsg
			e.queued--
			e.m.Kernel.Schedule(1, func() { e.handleReq(home, pmsg) })
		}
	}
}

// drainQueue re-dispatches requests that serialized behind a busy entry.
func (e *Engine) drainQueue(home int, addr uint64, ep *dirEntry) {
	if len(ep.queue) == 0 {
		return
	}
	waiters := ep.queue
	ep.queue = nil
	for _, w := range waiters {
		w := w
		e.queued--
		e.m.Kernel.Schedule(1, func() { e.handleReq(home, w) })
	}
}

// OnL2Evict implements protocol.Engine: dirty owners notify home (the
// machine already wrote the data back); Shared lines evict silently.
func (e *Engine) OnL2Evict(node int, addr uint64, line protocol.DataLine, now int64) {
	if line.State != protocol.Modified {
		return
	}
	home := e.m.Cfg.Home(addr)
	e.send(node, home, &protocol.Msg{Type: protocol.WbNotice, Addr: addr, Requester: node, Version: line.Version}, now)
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
	for n := 0; n < 64; n++ {
		if set&bit(n) != 0 {
			return n
		}
	}
	return -1
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
