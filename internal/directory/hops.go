package directory

import "math/bits"

// recordHops feeds the Section 1 hop-count characterization: for each
// coherence access at issue time it computes the baseline protocol's hop
// count and the oracle-ideal hop count given perfect knowledge of where the
// closest valid copy lives.
//
// Baseline reads: requester -> home -> first sharer (if any) -> requester;
// otherwise a requester/home round trip. Ideal reads: a round trip to the
// closest node holding a valid copy at issue time, or the baseline count
// when no copy exists.
//
// Baseline writes: a requester/home round trip plus a home/furthest-sharer
// invalidation round trip. Ideal writes assume the furthest sharer's
// invalidation starts at issue: if that sharer is farther from home than
// the requester, the grant waits for its acknowledgment
// (furthest->home then home->requester); otherwise just the
// requester/home round trip.
func (e *Engine) recordHops(node int, addr uint64, write bool) {
	topo := e.m.Mesh.Topo
	home := e.m.Home(addr)
	dReqHome := topo.Dist(node, home)
	ep, ok := e.dirs[home].Peek(addr)

	if !write {
		base := 2 * dReqHome
		if ok {
			holder := -1
			if ep.modified {
				holder = ep.owner
			} else if ep.sharers != 0 {
				holder = firstSharer(ep.sharers)
			}
			if holder >= 0 {
				base = dReqHome + topo.Dist(home, holder) + topo.Dist(holder, node)
			}
		}
		ideal := base
		if copies := e.m.Check.Copies(addr); len(copies) > 0 {
			best := -1
			for _, c := range copies {
				if c == node {
					continue
				}
				if d := topo.Dist(node, c); best < 0 || d < best {
					best = d
				}
			}
			if best >= 0 && 2*best < ideal {
				ideal = 2 * best
			}
		}
		e.HopRecorder(false, base, ideal)
		return
	}

	furthest := 0
	if ok {
		set := ep.sharers
		if ep.modified {
			set |= bit(ep.owner)
		}
		set &^= bit(node)
		for ; set != 0; set &= set - 1 {
			if d := topo.Dist(home, bits.TrailingZeros64(set)); d > furthest {
				furthest = d
			}
		}
	}
	base := 2*dReqHome + 2*furthest
	ideal := 2 * dReqHome
	if furthest > dReqHome {
		ideal = furthest + dReqHome
	}
	e.HopRecorder(true, base, ideal)
}
