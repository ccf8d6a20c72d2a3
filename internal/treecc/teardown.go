package treecc

import (
	"innetcc/internal/metrics"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/stats"
)

// Teardown and acknowledgment mechanics (paper Section 2.1):
//
// Teardowns percolate outward along virtual links from the initiating node,
// touching each line. A leaf converts the teardown into an acknowledgment
// sent back up its only link. A node forwards an acknowledgment — clearing
// its line — once acknowledgments have removed all but one of its links.
// Every acknowledgment terminates at the home node; when the home node's
// last link clears, the tree is gone and queued requests proceed.
//
// Teardowns and acks are hop-scoped packets: they carry the single link
// direction to traverse (Msg.ForcedDir), are consumed at the next router
// and respawn there as the protocol dictates, so they travel strictly along
// tree links and share FIFO/age order with the replies they may be chasing.
//
// Edges are normally symmetric (both endpoints hold the link bit), but a
// grafting reply that leaves the tree and re-enters it must not record the
// arrival link at the re-entered node: doing so would close a cycle, and
// cycles deadlock the acknowledgment collapse. Instead the re-entered node
// immediately sends an unlink acknowledgment (Msg.Unlink) back over the
// edge, erasing the sender's dangling bit while its line is still live, so
// teardown accounting always runs over a clean tree.

func (e *Engine) hopMsg(node int, t protocol.MsgType, addr uint64, out network.Dir) *network.Packet {
	return e.hopPacket(node, &protocol.Msg{Type: t, Addr: addr, ForcedDir: uint8(out)})
}

// hopPacket builds a hop-scoped packet spawning at node; ids come from the
// node's router-local sequence so route-phase construction needs no shared
// counter.
func (e *Engine) hopPacket(node int, msg *protocol.Msg) *network.Packet {
	return &network.Packet{
		ID:        e.m.Mesh.NextIDFor(node),
		Flits:     e.m.Cfg.CtrlFlits,
		Payload:   msg,
		Expedited: true,
	}
}

// processTeardown touches node's line for addr and propagates teardowns.
// arrival is the link the teardown came in on (DirNone for locally
// initiated teardowns: write requests bumping into the tree, proactive and
// conflict evictions, root-data eviction). clearArrival marks the abort
// teardown of a timed-out reply: the dangling link the reply had built is
// removed before normal processing. The returned packets must be spawned
// at the node's router.
func (e *Engine) processTeardown(node int, addr uint64, arrival network.Dir, clearArrival bool) []*network.Packet {
	line, ok := e.trees[node].Peek(addr)
	if !ok {
		return nil
	}
	if line.Touched {
		if clearArrival && arrival != network.DirNone && line.Links[arrival] {
			// An abort teardown still owns the dangling link it came
			// to remove; clearing it may complete the local collapse.
			line.Links[arrival] = false
			return e.collapse(node, addr, line)
		}
		// Crossing or duplicate teardown on a tree already being torn
		// down: redundant; every edge's ack comes from the collapse.
		return nil
	}
	if arrival != network.DirNone && clearArrival {
		line.Links[arrival] = false
		arrival = network.DirNone
	}
	line.Touched = true
	e.m.Counters.Inc(stats.TreeTeardowns, 1)
	e.m.Metrics.Event(e.m.Kernel.Now(), metrics.EvTeardown, int16(node), addr, int64(line.LinkCount()))
	// Invalidate the local data copy (D$: -> Invalid); the root's data is
	// captured for victim caching at the home node.
	if line.LocalValid && !e.hasBug(BugSkipInvalidate) {
		dl, had := e.m.InvalidateLine(node, addr, e.m.Kernel.Now())
		line.LocalValid = false
		if had && line.IsRoot {
			e.rootData[addr] = dl.Version
		}
	}
	var spawns []*network.Packet
	var mask uint8
	fanout := 0
	for d := 0; d < e.deg; d++ {
		if line.Links[d] && network.Dir(d) != arrival {
			mask |= 1 << uint(d)
			fanout++
		}
	}
	if e.m.Cfg.Multicast && fanout > 1 {
		// Hardware multicast: one masked continuation; the router forks
		// it into per-link copies at the crossbar (see forkHop).
		e.m.Counters.Inc(stats.TreeTdMulticasts, 1)
		spawns = append(spawns, e.hopPacket(node,
			&protocol.Msg{Type: protocol.Teardown, Addr: addr, ForcedMask: mask}))
	} else {
		for d := 0; d < e.deg; d++ {
			if mask&(1<<uint(d)) != 0 {
				spawns = append(spawns, e.hopMsg(node, protocol.Teardown, addr, network.Dir(d)))
			}
		}
	}
	if e.hasBug(BugEarlyHomeRelease) && node == e.home(addr) && line.LinkCount() > 0 {
		// Seeded defect: the home declares the tree gone the moment its
		// teardowns fan out, while outer nodes still hold valid data.
		e.trees[node].Invalidate(addr)
		e.teardownComplete(addr)
		return spawns
	}
	if line.OutstandingReq && !e.hasBug(BugDropAckHold) {
		// The local node's reply is completing above the network
		// (outstanding-request bit, Figure 4): the line participates
		// in the teardown but holds its acknowledgment until the
		// completion lands, so the next grant cannot serialize ahead
		// of the pending access.
		e.m.Counters.Inc(stats.TreeHeldAcks, 1)
		return spawns
	}
	switch n := line.LinkCount(); {
	case n == 0:
		// Single-node tree.
		e.trees[node].Invalidate(addr)
		if node == e.home(addr) {
			e.teardownComplete(addr)
		}
	case n == 1 && node != e.home(addr):
		// Leaf (the paper's rule), or a single-link initiator whose
		// chasing ack follows the teardown on the same FIFO link.
		d := line.OnlyLink()
		if !e.hasBug(BugDropTdAck) {
			spawns = append(spawns, e.hopMsg(node, protocol.TdAck, addr, d))
		}
		line.Links[d] = false
		e.trees[node].Invalidate(addr)
	}
	return spawns
}

// processAck handles a teardown acknowledgment arriving at node via link
// arrival: remove that link and collapse. unlink acks additionally apply to
// live lines, where they erase a freshly created dangling edge without
// collapsing anything.
func (e *Engine) processAck(node int, addr uint64, arrival network.Dir, unlink bool) []*network.Packet {
	line, ok := e.trees[node].Peek(addr)
	if !ok {
		// The line is already gone (e.g. the ack chased a teardown
		// into a node that collapsed first); nothing to remove.
		e.m.Counters.Inc(stats.TreeStaleAcks, 1)
		return nil
	}
	if !line.Touched {
		if unlink && arrival != network.DirNone {
			// Erase the dangling edge on the live line.
			line.Links[arrival] = false
			e.m.Counters.Inc(stats.TreeUnlinks, 1)
			return nil
		}
		// A plain ack can only legitimately land on a touched line; a
		// valid line here means a new tree reused the tag after the
		// old one fully collapsed. Leave it alone.
		e.m.Counters.Inc(stats.TreeStaleAcks, 1)
		return nil
	}
	if arrival != network.DirNone {
		if !line.Links[arrival] {
			// Stale or duplicate ack on an edge this node does not
			// hold; it must not trigger a collapse step.
			e.m.Counters.Inc(stats.TreeStaleAcks, 1)
			return nil
		}
		line.Links[arrival] = false
	}
	if line.OutstandingReq && !e.hasBug(BugDropAckHold) {
		// Collapse is held until the local completion lands.
		return nil
	}
	return e.collapse(node, addr, line)
}

// collapse applies the post-removal rules at a touched line: the home node
// terminates acknowledgments and completes at zero links; any other node
// forwards the acknowledgment up its last remaining link and invalidates.
func (e *Engine) collapse(node int, addr uint64, line *TreeLine) []*network.Packet {
	if node == e.home(addr) {
		if line.LinkCount() == 0 {
			e.trees[node].Invalidate(addr)
			e.teardownComplete(addr)
		}
		return nil
	}
	switch line.LinkCount() {
	case 0:
		e.trees[node].Invalidate(addr)
		return nil
	case 1:
		d := line.OnlyLink()
		line.Links[d] = false
		e.trees[node].Invalidate(addr)
		if e.hasBug(BugDropTdAck) {
			return nil
		}
		return []*network.Packet{e.hopMsg(node, protocol.TdAck, addr, d)}
	}
	return nil
}
