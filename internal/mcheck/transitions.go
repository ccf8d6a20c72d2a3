package mcheck

import (
	"fmt"

	"innetcc/internal/verify"
)

// The transition relation of the reduced protocol. Each successor applies
// exactly one atomic event to a clone of the state:
//
//   - an idle processor issues its next operation (its request is routed at
//     the local router immediately);
//   - a channel delivers its head message to the neighboring router, which
//     runs the Table 1 kernel for it;
//   - a NIC serves the head of its service queue (data access, memory
//     access, grant, or completion — atomic, since latencies are irrelevant
//     to reachability).
//
// Router processing is a faithful port of internal/treecc's Route /
// processTeardown / processAck logic minus the capacity machinery (no
// conflict evictions, so no stalls and no timeout recovery), which matches
// the backbone the paper verified in Murφ. The Mut hooks inject the
// deliberate bugs of the mutation suite; with Mut == 0 the relation is the
// clean protocol.

// succ is one labeled transition.
type succ struct {
	s     *state
	label string
}

func (c *Checker) successors(s *state) []succ {
	var out []succ

	// 1. Operation issue: one outstanding operation per node
	// (sequential-consistency Requirement 4).
	for i := range s.ops {
		if s.ops[i].Phase != opNotIssued {
			continue
		}
		busy := false
		for j := range s.ops {
			if j != i && c.Ops[j].Node == c.Ops[i].Node && s.ops[j].Phase == opInFlight {
				busy = true
			}
		}
		if busy {
			continue
		}
		ns := s.clone()
		ns.ops[i].Phase = opInFlight
		op := c.Ops[i]
		// Local hit? Reads hit Shared/Modified; writes hit Modified.
		if ns.data[op.Node] != dInvalid && (!op.Write || ns.data[op.Node] == dModified) {
			if op.Write {
				ns.wrote++
				ns.dver[op.Node] = ns.wrote
				c.checkSoleCopy(ns, op.Node)
			} else {
				ns.ops[i].Sampled = ns.dver[op.Node]
				c.checkLocalRead(ns, op.Node)
			}
			ns.ops[i].Phase = opDone
			out = append(out, succ{ns, fmt.Sprintf("localhit op%d", i)})
			continue
		}
		t := int8(mRdReq)
		if op.Write {
			t = mWrReq
		}
		c.route(ns, op.Node, msg{Type: t, Op: int8(i)}, dirNone)
		out = append(out, succ{ns, fmt.Sprintf("issue op%d@n%d", i, op.Node)})
	}

	// 2. Channel deliveries.
	for n := 0; n < c.nodes; n++ {
		for d := 0; d < 4; d++ {
			if len(s.chans[n*4+d]) == 0 {
				continue
			}
			nb := c.neighbor(n, d)
			ns := s.clone()
			m := ns.chans[n*4+d][0]
			ns.chans[n*4+d] = ns.chans[n*4+d][1:]
			c.route(ns, nb, m, c.arrival(d))
			out = append(out, succ{ns, fmt.Sprintf("dlv %s %d->%d", msgNames[m.Type], n, nb)})
		}
	}

	// 3. NIC services.
	for n := 0; n < c.nodes; n++ {
		if len(s.nicq[n]) == 0 {
			continue
		}
		ns := s.clone()
		m := ns.nicq[n][0]
		ns.nicq[n] = ns.nicq[n][1:]
		c.nicServe(ns, n, m)
		out = append(out, succ{ns, fmt.Sprintf("nic %s@n%d", msgNames[m.Type], n)})
	}
	return out
}

func send(s *state, node, dir int, m msg) {
	s.chans[node*4+dir] = append(s.chans[node*4+dir], m)
}

// route runs the router kernel for m at node; arrival is the inbound link
// (dirNone for locally issued or NIC-spawned messages).
func (c *Checker) route(s *state, node int, m msg, arrival int) {
	switch m.Type {
	case mRdReq:
		c.routeRead(s, node, m)
	case mWrReq:
		c.routeWrite(s, node, m)
	case mRdReply, mWrReply:
		c.routeReply(s, node, m, arrival)
	case mTeardown:
		c.teardown(s, node, arrival, false)
	case mTdAck:
		c.ack(s, node, arrival, m)
	}
}

func (c *Checker) routeRead(s *state, node int, m msg) {
	t := &s.lines[node]
	if t.Valid && !t.Touched {
		if t.LocalV {
			s.nicq[node] = append(s.nicq[node], m)
			return
		}
		if !t.IsRoot && t.RootDir != dirNone && t.Links[t.RootDir] {
			send(s, node, int(t.RootDir), m)
			return
		}
	}
	if node == c.Home {
		if s.pend && !c.has(MutDoubleGrant) {
			s.pendq = append(s.pendq, m)
			return
		}
		if t.Valid && t.Touched {
			s.homeq = append(s.homeq, m)
			return
		}
		if t.Valid {
			// Degenerate home line; the simulator drops and
			// serves fresh.
			*t = treeLine{RootDir: dirNone}
		}
		s.pend = true
		m.HomeServe = true
		s.nicq[node] = append(s.nicq[node], m)
		return
	}
	send(s, node, c.routeTo(node, c.Home), m)
}

func (c *Checker) routeWrite(s *state, node int, m msg) {
	t := &s.lines[node]
	if node == c.Home {
		if s.pend && !c.has(MutDoubleGrant) {
			s.pendq = append(s.pendq, m)
			return
		}
		if t.Valid && t.Touched {
			s.homeq = append(s.homeq, m)
			return
		}
		if t.Valid {
			c.teardown(s, node, dirNone, false)
			if s.lines[node].Valid {
				s.homeq = append(s.homeq, m)
			} else {
				// Single-node tree tore down instantly.
				s.pend = true
				m.HomeServe = true
				s.nicq[node] = append(s.nicq[node], m)
			}
			return
		}
		s.pend = true
		m.HomeServe = true
		s.nicq[node] = append(s.nicq[node], m)
		return
	}
	if t.Valid && !t.Touched {
		c.teardown(s, node, dirNone, false)
	}
	send(s, node, c.routeTo(node, c.Home), m)
}

// revert turns a reply back into a request at node, releasing the
// home-serve window if the reply owned it (it was fresh and had not yet
// anchored the home line).
func (c *Checker) revert(s *state, node int, m msg, arrival int) {
	if m.Root && arrival == dirNone {
		c.releasePend(s)
	}
	t := int8(mRdReq)
	if m.Type == mWrReply {
		t = mWrReq
	}
	c.route(s, node, msg{Type: t, Op: m.Op}, dirNone)
}

func (c *Checker) routeReply(s *state, node int, m msg, arrival int) {
	t := &s.lines[node]
	req := c.Ops[m.Op].Node
	// Origin guard for grafting replies (the serve raced a teardown).
	if arrival == dirNone && !m.Root {
		if !t.Valid || t.Touched {
			c.route(s, node, msg{Type: mRdReq, Op: m.Op}, dirNone)
			return
		}
	}
	if node == req {
		if t.Valid && !t.Touched {
			if m.Root {
				if t.LocalV {
					c.invalidateData(s, node)
					t.LocalV = false
				}
				t.IsRoot = true
				t.RootDir = dirNone
				t.Links = [4]bool{}
				if arrival != dirNone {
					t.Links[arrival] = true
				}
			} else if m.Built && arrival != dirNone && !t.Links[arrival] {
				// Graft re-entry at the requester: unlink the
				// sender's dangling bit.
				send(s, node, arrival, msg{Type: mTdAck, Op: -1, Built: true /* unlink */})
			}
			t.Anchored = true
			if s.pend && m.Root && arrival == dirNone {
				c.releasePend(s)
			}
			s.nicq[node] = append(s.nicq[node], m)
			return
		}
		if !t.Valid {
			*t = treeLine{Valid: true, RootDir: dirNone, Anchored: true}
			if arrival != dirNone {
				t.Links[arrival] = true
			}
			if m.Root {
				t.IsRoot = true
			} else {
				t.RootDir = int8(arrival)
			}
			if s.pend && m.Root && arrival == dirNone {
				c.releasePend(s)
			}
			s.nicq[node] = append(s.nicq[node], m)
			return
		}
		// Touched line at the requester: if its acknowledgment is held
		// for this reply, eject for an uncached completion (releasing
		// the collapse); otherwise revert.
		if t.Anchored {
			if s.pend && m.Root && arrival == dirNone {
				c.releasePend(s)
			}
			s.nicq[node] = append(s.nicq[node], m)
			return
		}
		c.revert(s, node, m, arrival)
		return
	}
	out := c.routeTo(node, req)
	if t.Valid && !t.Touched {
		if !m.Root {
			if m.Built && arrival != dirNone && !t.Links[arrival] {
				send(s, node, arrival, msg{Type: mTdAck, Op: -1, Built: true})
			}
			if d, ok := c.closer(s, node, req); ok {
				m.Built = false
				send(s, node, d, m)
				return
			}
			t.Links[out] = true
			m.Built = true
			send(s, node, out, m)
			return
		}
		// Fresh-tree reply absorbing a remnant.
		if t.LocalV {
			c.invalidateData(s, node)
			t.LocalV = false
		}
		t.Links = [4]bool{}
		if arrival != dirNone {
			t.Links[arrival] = true
		}
		t.Links[out] = true
		t.RootDir = int8(out)
		t.IsRoot = false
		t.Anchored = false
		m.Built = true
		// The reply must enter the channel before the pending queue
		// re-routes (a released write's teardown chases it in FIFO
		// order, mirroring the simulator's age-based arbitration).
		send(s, node, out, m)
		if s.pend && arrival == dirNone && node == c.Home {
			c.releasePend(s)
		}
		return
	}
	if !t.Valid {
		if !m.Root && !m.Built && arrival != dirNone {
			// Followed a tree edge into a collapsed node: revert.
			c.revert(s, node, m, arrival)
			return
		}
		*t = treeLine{Valid: true, RootDir: dirNone}
		if arrival != dirNone {
			t.Links[arrival] = true
		}
		t.Links[out] = true
		if m.Root {
			t.RootDir = int8(out)
		} else {
			t.RootDir = int8(arrival)
		}
		m.Built = true
		send(s, node, out, m)
		if s.pend && m.Root && arrival == dirNone && node == c.Home {
			c.releasePend(s)
		}
		return
	}
	// Touched: revert to a request (the simulator stalls then times out).
	c.revert(s, node, m, arrival)
}

func (c *Checker) closer(s *state, node, target int) (int, bool) {
	t := &s.lines[node]
	cur := c.dist(node, target)
	for d := 0; d < 4; d++ {
		if !t.Links[d] {
			continue
		}
		nb := c.neighbor(node, d)
		if nb >= 0 && c.dist(nb, target) < cur {
			return d, true
		}
	}
	return dirNone, false
}

// releasePend lifts the home-serve marker and re-routes the queued
// requests at the home node.
func (c *Checker) releasePend(s *state) {
	s.pend = false
	q := s.pendq
	s.pendq = nil
	for _, w := range q {
		c.route(s, c.Home, w, dirNone)
	}
}

func (c *Checker) invalidateData(s *state, node int) {
	if s.data[node] == dModified && s.dver[node] > s.memV && !c.has(MutLostWriteback) {
		s.memV = s.dver[node]
	}
	s.data[node] = dInvalid
}

// teardown ports processTeardown (no ClearArrival: no timeout aborts in
// the reduced model).
func (c *Checker) teardown(s *state, node, arrival int, _ bool) {
	t := &s.lines[node]
	if !t.Valid || t.Touched {
		return
	}
	t.Touched = true
	if t.LocalV && !c.has(MutSkipInvalidate) {
		c.invalidateData(s, node)
		t.LocalV = false
	}
	for d := 0; d < 4; d++ {
		if t.Links[d] && d != arrival {
			send(s, node, d, msg{Type: mTeardown, Op: -1})
		}
	}
	if node == c.Home && c.has(MutEarlyHomeRelease) {
		// Wrong teardown order: the home declares the teardown done the
		// moment its own line is touched, without waiting for the
		// subtree to collapse and acknowledge.
		*t = treeLine{RootDir: dirNone}
		c.teardownComplete(s)
		return
	}
	if t.Anchored && !c.ackHoldOff() {
		// Hold the acknowledgment until the pending completion lands
		// (outstanding-request bit).
		return
	}
	switch n := t.linkCount(); {
	case n == 0:
		*t = treeLine{RootDir: dirNone}
		if node == c.Home {
			c.teardownComplete(s)
		}
	case n == 1 && node != c.Home:
		d := t.onlyLink()
		if !c.has(MutDropTdAck) {
			send(s, node, d, msg{Type: mTdAck, Op: -1})
		}
		*t = treeLine{RootDir: dirNone}
	}
}

// ack ports processAck; m.Built doubles as the unlink flag for acks.
func (c *Checker) ack(s *state, node, arrival int, m msg) {
	t := &s.lines[node]
	if !t.Valid {
		return
	}
	if !t.Touched {
		if m.Built && arrival != dirNone {
			t.Links[arrival] = false
		}
		return
	}
	if arrival != dirNone {
		if !t.Links[arrival] {
			return
		}
		t.Links[arrival] = false
	}
	if t.Anchored && !c.ackHoldOff() {
		return
	}
	c.collapse(s, node)
}

func (c *Checker) collapse(s *state, node int) {
	t := &s.lines[node]
	if node == c.Home {
		if t.linkCount() == 0 {
			*t = treeLine{RootDir: dirNone}
			c.teardownComplete(s)
		}
		return
	}
	switch t.linkCount() {
	case 0:
		*t = treeLine{RootDir: dirNone}
	case 1:
		d := t.onlyLink()
		if !c.has(MutDropTdAck) {
			send(s, node, d, msg{Type: mTdAck, Op: -1})
		}
		*t = treeLine{RootDir: dirNone}
	}
}

// teardownComplete releases the home queue. Victim caching is modeled by
// memory (writebacks are immediate), so the home L2 copy step is folded
// into memV.
func (c *Checker) teardownComplete(s *state) {
	q := s.homeq
	s.homeq = nil
	for _, w := range q {
		c.route(s, c.Home, w, dirNone)
	}
}

// nicServe is the above-network work: data sampling, memory access, grant,
// completion. Atomic.
func (c *Checker) nicServe(s *state, node int, m msg) {
	t := &s.lines[node]
	switch m.Type {
	case mRdReq:
		if t.Valid && !t.Touched && t.LocalV {
			// Sharer serve: a dirty line writes back (M -> S).
			if s.data[node] == dModified {
				if !c.has(MutLostWriteback) {
					s.memV = s.dver[node]
				}
				s.data[node] = dShared
			}
			v := s.dver[node]
			if v != s.memV {
				c.fail(verify.SCOrder, "read sampled v%d at n%d but memory holds v%d", v, node, s.memV)
			}
			c.Opsampled(s, m.Op, v)
			c.route(s, node, msg{Type: mRdReply, Op: m.Op, Ver: v}, dirNone)
			return
		}
		if !m.HomeServe {
			// Raced serve: retry toward home.
			c.route(s, node, msg{Type: mRdReq, Op: m.Op}, dirNone)
			return
		}
		// Home serve from memory (victim caching folded into memV).
		v := s.memV
		c.Opsampled(s, m.Op, v)
		c.route(s, node, msg{Type: mRdReply, Op: m.Op, Ver: v, Root: true}, dirNone)
	case mWrReq:
		// Grant (Requirement 3: home data copy invalidated).
		if s.data[node] != dInvalid && node == c.Home {
			c.invalidateData(s, node)
		}
		c.route(s, node, msg{Type: mWrReply, Op: m.Op, Root: true}, dirNone)
	case mRdReply:
		if t.Valid && !t.Touched && (t.Anchored || c.anchorOff()) {
			s.data[node] = dShared
			s.dver[node] = m.Ver
			t.LocalV = true
			t.Anchored = false
		} else {
			c.releaseHeld(s, node)
		}
		s.ops[m.Op].Phase = opDone
		s.ops[m.Op].Sampled = m.Ver
	case mWrReply:
		s.wrote++
		v := s.wrote
		c.checkSoleCopy(s, node)
		if t.Valid && !t.Touched && (t.Anchored || c.anchorOff()) {
			s.data[node] = dModified
			s.dver[node] = v
			t.LocalV = true
			t.Anchored = false
		} else {
			// Tree being torn down: write through; the held
			// acknowledgment guaranteed this commit serialized
			// before the next grant.
			if v > s.memV {
				s.memV = v
			}
			c.releaseHeld(s, node)
		}
		s.ops[m.Op].Phase = opDone
	}
}

// releaseHeld resumes a collapse held at node by the outstanding-request
// bit.
func (c *Checker) releaseHeld(s *state, node int) {
	t := &s.lines[node]
	if !t.Valid || !t.Touched || !t.Anchored {
		return
	}
	t.Anchored = false
	if t.linkCount() == 0 {
		*t = treeLine{RootDir: dirNone}
		if node == c.Home {
			c.teardownComplete(s)
		}
		return
	}
	c.collapse(s, node)
}

// Opsampled records the version a read sampled.
func (c *Checker) Opsampled(s *state, op int8, v int8) {
	s.ops[op].Sampled = v
}
