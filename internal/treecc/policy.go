package treecc

import (
	"innetcc/internal/metrics"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/stats"
)

// Route implements network.Policy: the per-hop protocol kernel of the
// paper's Table 1, executed by the virtual-tree-cache pipeline stage of
// every router a packet visits.
func (e *Engine) Route(r *network.Router, p *network.Packet, now int64) network.Steer {
	msg := p.Payload.(*protocol.Msg)
	switch msg.Type {
	case protocol.Teardown, protocol.TdAck:
		return e.routeHop(r, p, msg)
	case protocol.RdReq:
		return e.routeReadReq(r, p, msg, now)
	case protocol.WrReq:
		return e.routeWriteReq(r, p, msg, now)
	case protocol.RdReply, protocol.WrReply:
		return e.routeReply(r, p, msg, now)
	}
	panic("treecc: unroutable message " + msg.Type.String())
}

// routeHop moves teardown/ack packets: freshly spawned ones exit on their
// forced link (forking first when they carry a multicast port mask);
// arriving ones are consumed and processed here.
func (e *Engine) routeHop(r *network.Router, p *network.Packet, msg *protocol.Msg) network.Steer {
	if p.ArrivalDir == network.Local {
		if msg.ForcedMask != 0 {
			return e.forkHop(r.NodeID, msg)
		}
		return network.Steer{Out: network.Dir(msg.ForcedDir)}
	}
	var spawns []*network.Packet
	if msg.Type == protocol.Teardown {
		spawns = e.processTeardown(r.NodeID, msg.Addr, p.ArrivalDir, msg.ClearArrival)
	} else {
		spawns = e.processAck(r.NodeID, msg.Addr, p.ArrivalDir, msg.Unlink)
	}
	return network.Steer{Consume: true, Spawn: spawns}
}

// forkHop expands a masked multicast hop message at its spawning router:
// the lowest set port keeps the original packet, every further port gets a
// clone of the payload in its own expedited packet — the router-crossbar
// replication hardware multicast buys. The mask is consumed here; each copy
// travels on as an ordinary forced-direction hop message.
func (e *Engine) forkHop(n int, msg *protocol.Msg) network.Steer {
	mask := msg.ForcedMask
	msg.ForcedMask = 0
	primary := network.DirNone
	var spawns []*network.Packet
	for d := 0; d < e.deg; d++ {
		if mask&(1<<uint(d)) == 0 {
			continue
		}
		if primary == network.DirNone {
			primary = network.Dir(d)
			msg.ForcedDir = uint8(d)
			continue
		}
		c := *msg
		c.ForcedDir = uint8(d)
		spawns = append(spawns, e.hopPacket(n, &c))
	}
	if primary == network.DirNone {
		// Degenerate empty mask after masking to the fabric degree.
		return network.Steer{Consume: true}
	}
	return network.Steer{Out: primary, Spawn: spawns}
}

// consumeToBackoff delays a deadlock-recovered request at the home node for
// the random backoff interval before reprocessing it (Section 2.1).
func (e *Engine) consumeToBackoff(home int, msg *protocol.Msg) network.Steer {
	cfg := e.m.Cfg
	now := e.m.Kernel.Now()
	delay := backoffDelay(uint64(cfg.Seed), msg.Addr, msg.Requester, now, cfg.BackoffMin, cfg.BackoffMax)
	msg.Backoff = false
	msg.DeadlockCycles += delay
	e.queued++
	e.m.Counters.Inc(stats.TreeBackoffs, 1)
	e.m.Metrics.Event(now, metrics.EvBackoff, int16(home), msg.Addr, delay)
	e.m.Kernel.Defer(delay, func() {
		e.queued--
		e.m.Mesh.Spawn(home, e.packet(home, msg), e.m.Kernel.Now())
	})
	return network.Steer{Consume: true}
}

// backoffDelay draws the deadlock-recovery backoff as a pure splitmix64-style
// hash of (seed, addr, requester, cycle), the same stateless scheme the
// fault layer's schedules use. A site-keyed hash consumes no shared RNG
// stream, so a draw never shifts any other random value.
func backoffDelay(seed, addr uint64, requester int, now, lo, hi int64) int64 {
	x := seed ^ addr*0x9e3779b97f4a7c15 ^ uint64(requester)<<40 ^ uint64(now)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if hi <= lo {
		return lo
	}
	return lo + int64(x%uint64(hi-lo+1))
}

// routeReadReq implements Table 1's RD_REQ kernel.
func (e *Engine) routeReadReq(r *network.Router, p *network.Packet, msg *protocol.Msg, now int64) network.Steer {
	n := r.NodeID
	addr := msg.Addr
	home := e.home(addr)
	if msg.Backoff && n == home {
		return e.consumeToBackoff(home, msg)
	}
	line, ok := e.trees[n].Lookup(addr)
	if c := e.m.Metrics; c != nil {
		if ok && !line.Touched {
			c.Add(stats.MetricTreeHit, 1)
			c.Event(now, metrics.EvTreeHit, int16(n), addr, int64(msg.Requester))
		} else {
			c.Add(stats.MetricTreeMiss, 1)
			c.Event(now, metrics.EvTreeMiss, int16(n), addr, int64(msg.Requester))
		}
	}
	if ok && !line.Touched {
		if line.LocalValid {
			// Valid data here: terminate in-transit, serve above
			// network (data cache access).
			return network.Steer{Out: network.Local}
		}
		if !line.IsRoot && int(line.RootDir) < e.deg && line.Links[line.RootDir] {
			// Part of the tree without data: steer toward the root.
			e.m.Metrics.Add(stats.MetricTreeBump, 1)
			e.m.Metrics.Event(now, metrics.EvBump, int16(n), addr, int64(msg.Requester))
			return network.Steer{Out: line.RootDir}
		}
		// Degenerate line (root without data, or dangling root
		// pointer): treat as off-tree and head for the home node;
		// teardown of such lines is already in flight or will come
		// from proactive eviction.
	}
	if n == home {
		if _, pend := e.pending[n][addr]; pend && !e.hasBug(BugDoubleGrant) {
			e.queueOnPending(addr, msg)
			return network.Steer{Consume: true}
		}
		if ok && line.Touched {
			// Requirement 1: wait for the teardown to finish.
			e.queueAtHome(addr, msg)
			return network.Steer{Consume: true}
		}
		if ok && !line.Touched {
			// Home is on the tree but the walk above fell through
			// (degenerate shape): serialize through the home just
			// like a fresh serve.
			e.trees[n].Invalidate(addr)
		}
		// No tree: serve from victim copy or memory above network.
		e.setPending(addr)
		msg.HomeServe = true
		return network.Steer{Out: network.Local}
	}
	return network.Steer{Out: e.topo.NextHop(n, home)}
}

// routeWriteReq implements Table 1's WR_REQ kernel, including the in-transit
// teardown of encountered trees and the proactive eviction of conflicting
// LRU trees on the way to the home node.
func (e *Engine) routeWriteReq(r *network.Router, p *network.Packet, msg *protocol.Msg, now int64) network.Steer {
	n := r.NodeID
	addr := msg.Addr
	home := e.home(addr)
	if msg.Backoff && n == home {
		return e.consumeToBackoff(home, msg)
	}
	line, ok := e.trees[n].Lookup(addr)
	if c := e.m.Metrics; c != nil {
		if ok && !line.Touched {
			c.Add(stats.MetricTreeHit, 1)
			c.Event(now, metrics.EvTreeHit, int16(n), addr, int64(msg.Requester))
		} else {
			c.Add(stats.MetricTreeMiss, 1)
			c.Event(now, metrics.EvTreeMiss, int16(n), addr, int64(msg.Requester))
		}
	}
	if n == home {
		if _, pend := e.pending[n][addr]; pend && !e.hasBug(BugDoubleGrant) {
			e.queueOnPending(addr, msg)
			return network.Steer{Consume: true}
		}
		if ok && line.Touched {
			e.queueAtHome(addr, msg)
			return network.Steer{Consume: true}
		}
		if ok {
			// A tree exists: tear it down and wait for completion
			// before granting (the home arbitrates writes).
			spawns := e.processTeardown(n, addr, network.DirNone, false)
			// processTeardown may have completed instantly
			// (single-node tree); requeue accordingly.
			if _, stillThere := e.trees[n].Peek(addr); stillThere {
				e.queueAtHome(addr, msg)
				return network.Steer{Consume: true, Spawn: spawns}
			}
			e.setPending(addr)
			msg.HomeServe = true
			return network.Steer{Out: network.Local, Spawn: spawns}
		}
		// No tree: grant above network (Requirement 3 invalidation of
		// the home's victim copy happens there).
		e.setPending(addr)
		msg.HomeServe = true
		return network.Steer{Out: network.Local}
	}
	var spawns []*network.Packet
	if ok && !line.Touched {
		// The write bumped into the line's tree: start invalidating
		// in-transit (the paper's Figure 1(b) optimization).
		spawns = e.processTeardown(n, addr, network.DirNone, false)
		e.m.Counters.Inc(stats.TreeWriteBumps, 1)
		e.m.Metrics.Event(now, metrics.EvBump, int16(n), addr, int64(msg.Requester))
	} else if !ok && e.m.Cfg.ProactiveEviction && !e.trees[n].HasFreeWay(addr) {
		// Proactive eviction: the set this line would occupy is full,
		// so tear down its LRU tree now to spare the reply the wait.
		if vaddr, _, found := e.trees[n].LRUVictim(addr, func(_ uint64, v *TreeLine) bool {
			return !v.Touched
		}); found {
			spawns = e.processTeardown(n, vaddr, network.DirNone, false)
			e.m.Counters.Inc(stats.TreeProactiveEvictions, 1)
			e.m.Metrics.Event(now, metrics.EvProactiveEvict, int16(n), vaddr, int64(msg.Requester))
		}
	}
	return network.Steer{Out: e.topo.NextHop(n, home), Spawn: spawns}
}

// routeReply implements Table 1's RD_REPLY / WR_REPLY kernels: route toward
// the requester, following tree links that lead closer when grafting onto
// an existing tree, constructing virtual links otherwise, stalling (with
// LRU-tree teardown and the timeout escape) when the matching set has no
// free way.
func (e *Engine) routeReply(r *network.Router, p *network.Packet, msg *protocol.Msg, now int64) network.Steer {
	n := r.NodeID
	addr := msg.Addr

	if p.ArrivalDir == network.Local && !msg.RequesterIsRoot {
		// First router visit of a reply grafting onto an existing
		// tree: the serving node must still be on a live tree. If a
		// teardown swept past while the data access was above the
		// network, any branch we build would be orphaned (no teardown
		// will ever chase it), so revert to a request instead.
		if line, ok := e.trees[n].Lookup(addr); !ok || line.Touched {
			e.m.Counters.Inc(stats.TreeServeRaces, 1)
			return e.revertToRequest(n, msg)
		}
	}

	// A fresh-tree reply's first router visit happens at the home node;
	// once it anchors the home's tree line (or aborts), the home-serve
	// serialization marker lifts and queued requests re-dispatch against
	// the new tree.
	freshAtHome := p.ArrivalDir == network.Local && msg.RequesterIsRoot

	if n == msg.Requester {
		return e.replyAtRequester(r, p, msg, now)
	}

	line, ok := e.trees[n].Lookup(addr)
	if ok && !line.Touched {
		out := e.topo.NextHop(n, msg.Requester)
		if !msg.RequesterIsRoot {
			// The reply re-entered the tree over a link it built at
			// the previous node: recording the mirror bit here could
			// close a cycle, so erase the sender's dangling bit
			// instead (see teardown.go).
			var spawns []*network.Packet
			if msg.BuiltLast && p.ArrivalDir != network.Local && !line.Links[p.ArrivalDir] {
				ul := &protocol.Msg{Type: protocol.TdAck, Addr: addr,
					ForcedDir: uint8(p.ArrivalDir), Unlink: true}
				spawns = append(spawns, e.hopPacket(n, ul))
				e.m.Counters.Inc(stats.TreeReentries, 1)
			}
			if e.m.Cfg.Replication && !line.LocalValid && msg.Type == protocol.RdReply {
				e.replicate(n, addr, msg.Version, line.Gen)
			}
			// Grafting onto an existing tree: prefer an existing
			// link that leads one hop closer to the requester.
			if d, found := e.closerLink(n, line, msg.Requester); found {
				msg.BuiltLast = false
				return network.Steer{Out: d, Spawn: spawns}
			}
			// No closer link: extend the tree along X-Y routing.
			line.Links[out] = true
			msg.BuiltLast = true
			return network.Steer{Out: out, Spawn: spawns}
		}
		// A fresh-tree reply normally never meets a valid line for
		// its address; a remnant (e.g. an orphaned branch) can
		// linger. Absorb it: stale local data is invalidated and only
		// the construction path's links are kept, so no dangling link
		// can hang a later ack collapse.
		if line.LocalValid {
			e.m.InvalidateLine(n, addr, now)
			line.LocalValid = false
		}
		for d := 0; d < e.deg; d++ {
			line.Links[d] = false
		}
		if p.ArrivalDir != network.Local {
			line.Links[p.ArrivalDir] = true
		}
		line.Links[out] = true
		line.RootDir = out
		line.IsRoot = false
		line.OutstandingReq = false
		line.Gen = e.nextGen(n)
		msg.BuiltLast = true
		if freshAtHome {
			e.releasePending(addr, n)
		}
		return network.Steer{Out: out}
	}
	if !ok {
		if !msg.RequesterIsRoot && !msg.BuiltLast && p.ArrivalDir != network.Local {
			// The reply followed an existing tree link to get here,
			// yet this node has no line: the tree collapsed across
			// its path and no teardown will chase a branch built
			// from this point. Revert to a request.
			return e.revertToRequest(n, msg)
		}
		if nl, allocated := e.trees[n].InsertNoEvict(addr); allocated {
			out := e.topo.NextHop(n, msg.Requester)
			if p.ArrivalDir != network.Local {
				nl.Links[p.ArrivalDir] = true
			}
			nl.Links[out] = true
			if msg.RequesterIsRoot {
				nl.RootDir = out
			} else {
				nl.RootDir = p.ArrivalDir
			}
			nl.Gen = e.nextGen(n)
			if e.m.Cfg.Replication && msg.Type == protocol.RdReply {
				e.replicate(n, addr, msg.Version, nl.Gen)
			}
			msg.BuiltLast = true
			if freshAtHome {
				e.releasePending(addr, n)
			}
			return network.Steer{Out: out}
		}
	}
	// Stall: either the matching tag is touched (mid-teardown) or the set
	// is full of active trees.
	return e.stallReply(r, p, msg, ok, now)
}

// revertToRequest turns an unanchorable read reply back into a read request
// spawned at node n; the data will be re-fetched along a coherent path.
func (e *Engine) revertToRequest(n int, msg *protocol.Msg) network.Steer {
	e.m.Counters.Inc(stats.TreeReplyReverts, 1)
	req := &protocol.Msg{Type: protocol.RdReq, Addr: msg.Addr,
		Requester: msg.Requester, IssuedAt: msg.IssuedAt,
		DeadlockCycles: msg.DeadlockCycles, Attempt: msg.Attempt}
	return network.Steer{Consume: true, Spawn: []*network.Packet{e.packet(n, req)}}
}

// replyAtRequester anchors the tree at the requesting node and ejects the
// reply for the above-network data installation.
func (e *Engine) replyAtRequester(r *network.Router, p *network.Packet, msg *protocol.Msg, now int64) network.Steer {
	n := r.NodeID
	addr := msg.Addr
	freshAtHome := p.ArrivalDir == network.Local && msg.RequesterIsRoot
	line, ok := e.trees[n].Lookup(addr)
	if ok && line.Touched && line.OutstandingReq {
		// The anchored line is being torn down with its acknowledgment
		// held for this very reply: eject for an uncached completion,
		// which will release the collapse.
		if freshAtHome {
			e.releasePending(addr, n)
		}
		return network.Steer{Out: network.Local}
	}
	if ok && !line.Touched {
		if msg.RequesterIsRoot {
			// The requester becomes the root of the fresh tree; the
			// construction-path edge is completed symmetrically.
			// Remnant links other than the construction path would
			// dangle, and remnant data is stale; scrub both.
			line.IsRoot = true
			line.RootDir = network.DirNone
			if line.LocalValid {
				e.m.InvalidateLine(n, addr, now)
				line.LocalValid = false
			}
			for d := 0; d < e.deg; d++ {
				line.Links[d] = false
			}
			if p.ArrivalDir != network.Local {
				line.Links[p.ArrivalDir] = true
			}
		}
		// Anchor: the outstanding-request bit ties the reply's
		// above-network completion to this specific line generation
		// (Figure 4's Req bit); a line rebuilt by another tree in the
		// completion window will not carry it.
		line.OutstandingReq = true
		if msg.RequesterIsRoot {
			line.Gen = e.nextGen(n)
		}
		// A grafting reply reaching a requester that is already part
		// of the tree adds no link: if the last hop followed a tree
		// edge the link exists, and if it was freshly built, the
		// sender's dangling bit is erased by an unlink ack.
		var spawns []*network.Packet
		if !msg.RequesterIsRoot && msg.BuiltLast && p.ArrivalDir != network.Local && !line.Links[p.ArrivalDir] {
			ul := &protocol.Msg{Type: protocol.TdAck, Addr: addr,
				ForcedDir: uint8(p.ArrivalDir), Unlink: true}
			spawns = append(spawns, e.hopPacket(n, ul))
			e.m.Counters.Inc(stats.TreeReentries, 1)
		}
		if freshAtHome {
			e.releasePending(addr, n)
		}
		return network.Steer{Out: network.Local, Spawn: spawns}
	}
	if !ok {
		if !msg.RequesterIsRoot && !msg.BuiltLast && p.ArrivalDir != network.Local {
			return e.revertToRequest(n, msg)
		}
		if nl, allocated := e.trees[n].InsertNoEvict(addr); allocated {
			if p.ArrivalDir != network.Local {
				nl.Links[p.ArrivalDir] = true
			}
			if msg.RequesterIsRoot {
				nl.IsRoot = true
				nl.RootDir = network.DirNone
			} else {
				nl.RootDir = p.ArrivalDir
			}
			nl.OutstandingReq = true
			nl.Gen = e.nextGen(n)
			if freshAtHome {
				e.releasePending(addr, n)
			}
			return network.Steer{Out: network.Local}
		}
	}
	return e.stallReply(r, p, msg, ok, now)
}

// stallReply holds a reply whose tree-cache allocation cannot proceed. On
// first stall it issues a teardown for the LRU tree of the blocked set; at
// the timeout it gives up: the partially built tree is torn down and the
// reply reverts to a (backoff-flagged) request — the paper's deadlock
// recovery (Section 2.1).
func (e *Engine) stallReply(r *network.Router, p *network.Packet, msg *protocol.Msg, tagTouched bool, now int64) network.Steer {
	n := r.NodeID
	addr := msg.Addr
	if p.StallCycles(now) >= e.m.Cfg.TimeoutCycles {
		return e.abortReply(r.NodeID, p, msg, now)
	}
	var spawns []*network.Packet
	if p.StallCycles(now) == 0 && !tagTouched {
		if vaddr, _, found := e.trees[n].LRUVictim(addr, func(_ uint64, v *TreeLine) bool {
			return !v.Touched
		}); found {
			spawns = e.processTeardown(n, vaddr, network.DirNone, false)
			e.m.Counters.Inc(stats.TreeConflictEvictions, 1)
			e.m.Metrics.Event(now, metrics.EvConflictEvict, int16(n), vaddr, int64(msg.Requester))
		}
	}
	return network.Steer{Stall: true, Spawn: spawns}
}

// abortReply is the timeout path: tear down the partial tree behind the
// reply (clearing the dangling link it created at the previous node) and
// regenerate the original request, to be held at the home node for a random
// backoff.
func (e *Engine) abortReply(n int, p *network.Packet, msg *protocol.Msg, now int64) network.Steer {
	e.m.Counters.Inc(stats.TreeDeadlockAborts, 1)
	e.m.Metrics.Event(now, metrics.EvDeadlockAbort, int16(n), msg.Addr, int64(msg.Requester))
	if p.ArrivalDir == network.Local && msg.RequesterIsRoot {
		// A fresh reply giving up before it ever anchored the home's
		// tree line: lift the home-serve serialization marker so the
		// regenerated request (and any queued ones) can be served.
		e.releasePending(msg.Addr, n)
	}
	var spawns []*network.Packet
	if p.ArrivalDir != network.Local && msg.BuiltLast {
		// The link the reply built at the previous node dangles toward
		// this node; clear it and tear down the partial construction.
		// If the last hop followed an existing tree link instead, a
		// teardown of that tree is already collapsing and will reclaim
		// every link the reply touched — spawning nothing is correct.
		td := &protocol.Msg{Type: protocol.Teardown, Addr: msg.Addr,
			ForcedDir: uint8(p.ArrivalDir), ClearArrival: true}
		spawns = append(spawns, &network.Packet{
			ID: e.m.Mesh.NextIDFor(n), Flits: e.m.Cfg.CtrlFlits, Payload: td, Expedited: true,
		})
	}
	t := protocol.RdReq
	if msg.Type == protocol.WrReply {
		t = protocol.WrReq
	}
	req := &protocol.Msg{Type: t, Addr: msg.Addr, Requester: msg.Requester,
		IssuedAt: msg.IssuedAt, Backoff: true,
		DeadlockCycles: msg.DeadlockCycles + e.m.Cfg.TimeoutCycles,
		Attempt:        msg.Attempt}
	reqPkt := &network.Packet{ID: e.m.Mesh.NextIDFor(n), Flits: e.m.Cfg.CtrlFlits,
		Payload: req, Retryable: true}
	spawns = append(spawns, reqPkt)
	return network.Steer{Consume: true, Spawn: spawns}
}

// closerLink looks for an existing tree link at node n whose neighbor is
// one hop closer to the target node.
func (e *Engine) closerLink(n int, line *TreeLine, target int) (network.Dir, bool) {
	cur := e.topo.Dist(n, target)
	for d := 0; d < e.deg; d++ {
		if !line.Links[d] {
			continue
		}
		nb, valid := e.topo.Neighbor(n, network.Dir(d))
		if valid && e.topo.Dist(nb, target) < cur {
			return network.Dir(d), true
		}
	}
	return network.DirNone, false
}
