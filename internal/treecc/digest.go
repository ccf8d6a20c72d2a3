package treecc

import (
	"sort"

	"innetcc/internal/protocol"
	"innetcc/internal/sim"
)

// DigestState implements protocol.StateDigester: it folds every router's
// virtual tree cache, the home-side request queues and the captured root
// data into the machine state digest. Maps are folded in sorted key order
// so the digest is independent of Go's map iteration order.
func (e *Engine) DigestState(d *sim.Digest) {
	d.Int(e.queued)
	for node, tc := range e.trees {
		d.Int(tc.Len())
		tc.ScanAll(func(addr uint64, tl *TreeLine) bool {
			d.U64(addr)
			for _, b := range tl.Links {
				d.Bool(b)
			}
			d.Int(int(tl.RootDir))
			d.Bool(tl.IsRoot)
			d.Bool(tl.Touched)
			d.Bool(tl.LocalValid)
			d.Bool(tl.OutstandingReq)
			d.U64(tl.Gen)
			return true
		})
		digestMsgQueue(d, e.homeQueue[node])
		digestMsgQueue(d, e.pending[node])
		d.U64(e.genCounters[node])
	}

	addrs := make([]uint64, 0, len(e.rootData))
	for a := range e.rootData {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	d.Int(len(addrs))
	for _, a := range addrs {
		d.U64(a)
		d.U64(e.rootData[a])
	}
}

// digestMsgQueue folds one per-home map of address-keyed message queues in
// address order.
func digestMsgQueue(d *sim.Digest, q map[uint64][]*protocol.Msg) {
	addrs := make([]uint64, 0, len(q))
	for a := range q {
		if len(q[a]) > 0 {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	d.Int(len(addrs))
	for _, a := range addrs {
		d.U64(a)
		d.Int(len(q[a]))
		for _, msg := range q[a] {
			protocol.DigestMsg(d, msg)
		}
	}
}
