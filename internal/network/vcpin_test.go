package network

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"innetcc/internal/fault"
	"innetcc/internal/metrics"
	"innetcc/internal/sim"
)

// vcPinPolicy routes X-Y, holds a deterministic subset of heads in place
// for a few cycles, and spawns one expedited follower in the other class
// for every fifth packet at its source. Followers are consumed in-network
// at their destination instead of ejecting, so the run exercises every
// Phase 1 outcome (route, stall, consume, spawn) on both VCs.
type vcPinPolicy struct{}

func (vcPinPolicy) Route(r *Router, p *Packet, now int64) Steer {
	follower := p.Payload == "follower"
	if (p.ID*7+uint64(now)*13+uint64(r.NodeID))%11 == 0 {
		return Steer{Stall: true}
	}
	if r.NodeID == p.Dst {
		if follower {
			return Steer{Consume: true}
		}
		return Steer{Out: Local}
	}
	st := Steer{Out: r.Topo().NextHop(r.NodeID, p.Dst)}
	if !follower && r.NodeID == p.Src && p.Hops == 0 && p.ID%5 == 0 {
		f := r.mesh.AllocPacketFor(r.NodeID)
		f.ID = r.mesh.NextIDFor(r.NodeID)
		f.Src, f.Dst, f.Flits = p.Src, p.Dst, 1
		f.Class = 1 - p.Class
		f.Payload = "follower"
		f.Expedited = true
		st.Spawn = []*Packet{f}
	}
	return st
}

// vcPinResult is everything the multi-VC pin run reports.
type vcPinResult struct {
	EjectHash, NoCHash                            uint64
	Ejected, Delivered, Hops                      int64
	Grants, SerialWait, LinkBusy, QueueSum, Stall int64
	Drops, ChecksumDrops, Corruptions, StallCyc   int64
	DropNotes                                     int
}

// runVCPin drives a 4x4 mesh with two VCs, traffic in both classes, the
// stalling/spawning policy above, metrics on and an injector armed with
// stall, drop and corrupt faults.
func runVCPin() vcPinResult {
	k := sim.NewKernel(1)
	m := testMesh(k, 4, 4, 2, 2, vcPinPolicy{})
	m.Metrics = metrics.NewNoC(m.Nodes(), m.InPorts(), m.OutPorts(), m.VCCount)
	spec := fault.DefaultSpec()
	spec.DropPPM, spec.CorruptPPM, spec.StallPPM, spec.StallLen = 4000, 4000, 30000, 4
	spec.Scope = fault.ScopeAll
	m.Faults = &fault.Injector{Plan: spec.Plan(11)}

	var res vcPinResult
	eh := fnv.New64a()
	var buf [24]byte
	m.EjectFn = func(node int, p *Packet, now int64) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(now))
		binary.LittleEndian.PutUint64(buf[8:], uint64(node))
		binary.LittleEndian.PutUint64(buf[16:], p.ID)
		eh.Write(buf[:])
		res.Ejected++
	}
	m.DropFn = func(*Packet, fault.DropReason, int64) { res.DropNotes++ }

	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for c := 0; c < 3000; c++ {
		if c < 1500 && c%2 == 0 {
			for i := 0; i < 3; i++ {
				src, dst := next(16), next(16)
				p := m.AllocPacketFor(src)
				p.ID = m.NextIDFor(src)
				p.Src, p.Dst = src, dst
				p.Flits = 1 + next(4)
				p.Class = VC(next(2))
				m.Inject(src, p, k.Now())
			}
		}
		k.Step()
	}
	if !k.RunUntil(func() bool { return m.InFlight == 0 }, 100000) {
		panic("vc pin run did not drain")
	}

	nh := fnv.New64a()
	for _, arr := range [][]int64{m.Metrics.Grants, m.Metrics.SerialWait, m.Metrics.LinkBusy, m.Metrics.QueueSum, m.Metrics.PolicyStalls} {
		for _, v := range arr {
			binary.LittleEndian.PutUint64(buf[:8], uint64(v))
			nh.Write(buf[:8])
		}
	}
	sum := func(a []int64) (s int64) {
		for _, v := range a {
			s += v
		}
		return s
	}
	res.EjectHash, res.NoCHash = eh.Sum64(), nh.Sum64()
	res.Delivered, res.Hops = m.DeliveredPackets, m.TotalHops
	res.Grants, res.SerialWait = sum(m.Metrics.Grants), sum(m.Metrics.SerialWait)
	res.LinkBusy, res.QueueSum = sum(m.Metrics.LinkBusy), sum(m.Metrics.QueueSum)
	res.Stall = sum(m.Metrics.PolicyStalls)
	inj := m.Faults
	res.Drops, res.ChecksumDrops, res.Corruptions, res.StallCyc = inj.Drops, inj.ChecksumDrops, inj.Corruptions, inj.StallCycles
	return res
}

// vcPinGolden is runVCPin's output. No engine configures more than one
// VC, so the engine digests cannot see multi-VC arbitration; this pins it
// directly: grant order (through the ejection order hash), the per-port
// NoC aggregates and the fault counters. A deliberate behaviour change
// re-records it from the failure message.
var vcPinGolden = vcPinResult{
	EjectHash: 0xd56c498b8f32dbd2, NoCHash: 0xcb187fafdbb6164e,
	Ejected: 2207, Delivered: 2709, Hops: 6703,
	Grants: 9009, SerialWait: 2897, LinkBusy: 20586, QueueSum: 31016, Stall: 911,
	Drops: 27, ChecksumDrops: 30, Corruptions: 30, StallCyc: 2192, DropNotes: 57,
}

func TestVCArbitrationPinned(t *testing.T) {
	got := runVCPin()
	if got != vcPinGolden {
		t.Fatalf("multi-VC arbitration diverged from the pinned run:\n got %#v\nwant %#v", got, vcPinGolden)
	}
	if got.SerialWait == 0 || got.Stall == 0 || got.Drops == 0 || got.ChecksumDrops == 0 || got.StallCyc == 0 {
		t.Fatalf("pin run does not exercise every path: %+v", got)
	}
}
