package network

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"innetcc/internal/fault"
	"innetcc/internal/sim"
)

// arbPinPolicy routes X-Y, holds a deterministic subset of heads in place
// for a few cycles, and spawns one expedited follower for every fifth
// packet at its source. Followers are consumed in-network at their
// destination instead of ejecting, so the run exercises every Phase 1
// outcome (route, stall, consume, spawn).
type arbPinPolicy struct{}

func (arbPinPolicy) Route(r *Router, p *Packet, now int64) Steer {
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
		f := r.mesh.AllocPacket()
		f.ID = r.mesh.NextIDFor(r.NodeID)
		f.Src, f.Dst, f.Flits = p.Src, p.Dst, 1
		f.Payload = "follower"
		f.Expedited = true
		r.mesh.Spawn(r.NodeID, f, now)
	}
	return st
}

// arbPinResult is everything the arbitration pin run reports.
type arbPinResult struct {
	EjectHash, NoCHash                            uint64
	Ejected, Delivered, Hops                      int64
	Grants, SerialWait, LinkBusy, QueueSum, Stall int64
	Drops, ChecksumDrops, Corruptions, StallCyc   int64
	DropNotes                                     int
}

// runArbPin drives a 4x4 mesh with the stalling/spawning policy above,
// metrics on and an injector armed with stall, drop and corrupt faults.
func runArbPin() arbPinResult {
	k := sim.NewKernel(1)
	m := Build(k, Config{Topo: Mesh2D{W: 4, H: 4}, Pipeline: 2, Policy: arbPinPolicy{}})
	m.Metrics = testNoC(m)
	spec := fault.DefaultSpec()
	spec.DropPPM, spec.CorruptPPM, spec.StallPPM, spec.StallLen = 4000, 4000, 30000, 4
	spec.Scope = fault.ScopeAll
	m.Faults = &fault.Injector{Plan: spec.Plan(11)}

	var res arbPinResult
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
				p := m.AllocPacket()
				p.ID = m.NextIDFor(src)
				p.Src, p.Dst = src, dst
				p.Flits = 1 + next(4)
				next(2) // a retired class draw, kept so the stream is stable
				m.Inject(src, p, k.Now())
			}
		}
		k.Step()
	}
	if !k.RunUntil(func() bool { return m.InFlight == 0 }, 100000) {
		panic("arbitration pin run did not drain")
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

// arbPinGolden is runArbPin's output. It pins the router under dense
// mixed traffic directly: grant order (through the ejection order hash),
// the per-port NoC aggregates and the fault counters. A deliberate
// behaviour change re-records it from the failure message.
var arbPinGolden = arbPinResult{
	EjectHash: 0x865eaea249fe784d, NoCHash: 0x123866ddf15df0cc,
	Ejected: 2209, Delivered: 2710, Hops: 6701,
	Grants: 9006, SerialWait: 2818, LinkBusy: 20579, QueueSum: 31476, Stall: 938,
	Drops: 28, ChecksumDrops: 28, Corruptions: 28, StallCyc: 2202, DropNotes: 56,
}

func TestRouterArbitrationPinned(t *testing.T) {
	got := runArbPin()
	if got != arbPinGolden {
		t.Fatalf("router arbitration diverged from the pinned run:\n got %#v\nwant %#v", got, arbPinGolden)
	}
	if got.SerialWait == 0 || got.Stall == 0 || got.Drops == 0 || got.ChecksumDrops == 0 || got.StallCyc == 0 {
		t.Fatalf("pin run does not exercise every path: %+v", got)
	}
}
