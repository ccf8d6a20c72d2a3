package network

import "innetcc/internal/sim"

// DigestState folds the mesh's live state into d for state digests: global
// in-flight/delivery accounting, then every router's FIFO contents in
// port/VC/queue order with each queued packet's header and routing
// coordinates. Payloads are protocol messages owned by the engines
// (which fold their own state); here a packet contributes the fields the
// network itself steers by. Folding is observation-only: no FIFO is popped,
// no LRU or metric moves.
func (m *Mesh) DigestState(d *sim.Digest) {
	d.Int(m.InFlight)
	d.I64(m.DeliveredPackets)
	d.I64(m.TotalHops)
	nSlots := m.numIn * m.VCCount
	for node := range m.Routers {
		d.Int(int(m.queued[node]))
		d.U64(m.routeSeq[node])
		d.U64(m.idSeq[node])
		for out := 0; out < m.numOut; out++ {
			d.I64(m.busyTill[node*m.numOut+out])
		}
		// The flat slice's element order is port-major, VC-minor — the
		// exact nesting the digest has always folded in.
		for slot := 0; slot < nSlots; slot++ {
			{
				q := &m.fifos[node*nSlots+slot]
				d.Int(q.n)
				for i := 0; i < q.n; i++ {
					e := &q.buf[(q.head+i)%len(q.buf)]
					p := e.pkt
					d.I64(e.readyAt)
					d.U64(p.ID)
					d.Int(p.Src)
					d.Int(p.Dst)
					d.Int(p.Flits)
					d.Int(p.Hops)
					d.I64(p.InjectedAt)
					d.Int(int(p.ArrivalDir))
					d.Bool(p.routed)
					d.Int(p.outSlot)
					d.U64(p.routeSeq)
					d.I64(p.stallStart)
					// Multicast destination sets fold only when present,
					// so unicast-only runs digest exactly as before.
					if p.DstSet != nil {
						d.Int(len(p.DstSet))
						for _, w := range p.DstSet {
							d.U64(w)
						}
					}
				}
			}
		}
	}
}
