package network

// DestPolicy routes every packet toward its destination along the
// topology's deterministic minimal route (X-Y dimension order on the mesh
// and torus, shorter-way on the ring), ejecting it locally on arrival. It
// holds no state and spawns nothing for unicast traffic; a packet carrying
// a destination set (DstSet) is forked at fan-out routers, which is the
// hardware-multicast path the directory engine's invalidations use.
type DestPolicy struct{}

// Route implements Policy.
func (DestPolicy) Route(r *Router, p *Packet, now int64) Steer {
	if p.DstSet != nil {
		return routeMulticast(r, p, now)
	}
	return Steer{Out: r.mesh.Topo.NextHop(r.NodeID, p.Dst)}
}

// routeMulticast steers a multicast packet one hop: partition the
// destination set by next-hop port, keep one subset on this packet and
// spawn a clone per additional subset. The local-member subset (this
// router is a destination) always stays on the original packet so
// ejection recycles it here; otherwise the lowest-numbered port keeps the
// original.
// Clones enter the generation queue expedited — a hardware multicast
// router replicates the flit at the crossbar, paying no second pipeline
// traversal. A subset of one collapses to a plain unicast packet.
func routeMulticast(r *Router, p *Packet, now int64) Steer {
	m := r.mesh
	var groups [MaxDegree + 1]NodeSet
	local := m.deg
	p.DstSet.ForEach(func(n int) {
		s := m.outSlotOf(m.Topo.NextHop(r.NodeID, n))
		groups[s] = groups[s].Add(n)
	})
	primary := -1
	if groups[local] != nil {
		primary = local
	} else {
		for s := 0; s < local; s++ {
			if groups[s] != nil {
				primary = s
				break
			}
		}
	}
	if primary < 0 {
		// Empty set: degenerate caller input; fall back to unicast.
		p.DstSet = nil
		return Steer{Out: m.Topo.NextHop(r.NodeID, p.Dst)}
	}
	for s := 0; s <= local; s++ {
		if s == primary || groups[s] == nil {
			continue
		}
		m.spawn(r.NodeID, m.cloneForSet(r, p, groups[s]), now)
	}
	retarget(p, groups[primary])
	if m.Faults != nil {
		// Dst changed; the word was verified before Route ran, so
		// restamping here keeps the next router's check honest.
		p.Checksum = ChecksumOf(p)
	}
	return Steer{Out: m.slotDir(primary)}
}

// cloneForSet builds the fork copy of p that carries subset set. The clone
// keeps the original's hop and injection accounting (it has traversed the
// same links) and is expedited so the fork costs no extra pipeline pass.
func (m *Mesh) cloneForSet(r *Router, p *Packet, set NodeSet) *Packet {
	c := m.AllocPacket()
	c.ID = m.NextIDFor(r.NodeID)
	c.Src = p.Src
	c.Flits = p.Flits
	c.Retryable = p.Retryable
	c.Expedited = true
	c.Hops = p.Hops
	c.InjectedAt = p.InjectedAt
	if m.CloneFn != nil {
		c.Payload = m.CloneFn(p.Payload)
	} else {
		c.Payload = p.Payload
	}
	retarget(c, set)
	return c
}

// retarget points p at subset set: a single survivor collapses to plain
// unicast, a larger subset keeps the set with Dst tracking its minimum.
func retarget(p *Packet, set NodeSet) {
	if set.Count() == 1 {
		p.Dst = set.Min()
		p.DstSet = nil
		return
	}
	p.Dst = set.Min()
	p.DstSet = set
}
