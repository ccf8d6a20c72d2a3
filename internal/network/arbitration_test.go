package network

import (
	"testing"

	"innetcc/internal/sim"
)

// spawnOnSight forwards packets X-Y; at a chosen router it spawns one
// expedited follower packet (simulating a teardown chasing a reply).
type spawnOnSight struct {
	at        int
	spawned   bool
	expedited bool
}

func (s *spawnOnSight) Route(r *Router, p *Packet, now int64) Steer {
	st := Steer{Out: r.Topo().NextHop(r.NodeID, p.Dst)}
	if r.NodeID == s.at && !s.spawned && p.Payload == "lead" {
		s.spawned = true
		r.mesh.Spawn(r.NodeID, &Packet{
			ID: r.mesh.NextIDFor(r.NodeID), Src: s.at, Dst: p.Dst, Flits: 1,
			Payload: "chaser", Expedited: s.expedited,
		}, now)
	}
	return st
}

// TestChaserNeverOvertakesLead is the ordering property the in-network
// protocol's teardown-chase argument depends on: a packet spawned in
// reaction to a routed packet must reach the next router after it, even
// when expedited (age-based arbitration orders them by routing time).
func TestChaserNeverOvertakesLead(t *testing.T) {
	for _, expedited := range []bool{false, true} {
		k := sim.NewKernel(1)
		pol := &spawnOnSight{at: 1, expedited: expedited}
		m := testMesh(k, 4, 1, 3, pol)
		var order []string
		m.EjectFn = func(node int, p *Packet, now int64) {
			order = append(order, p.Payload.(string))
		}
		lead := &Packet{ID: m.NextIDFor(0), Src: 0, Dst: 3, Flits: 1, Payload: "lead"}
		m.Inject(0, lead, k.Now())
		if !k.RunUntil(func() bool { return len(order) == 2 }, 1000) {
			t.Fatalf("expedited=%v: packets not delivered (%v)", expedited, order)
		}
		if order[0] != "lead" {
			t.Fatalf("expedited=%v: chaser overtook lead: %v", expedited, order)
		}
	}
}

func TestExpeditedSpawnSkipsPipeline(t *testing.T) {
	// An expedited spawn must depart earlier than a non-expedited one.
	depart := func(expedited bool) int64 {
		k := sim.NewKernel(1)
		pol := &spawnOnSight{at: 0, expedited: expedited}
		m := testMesh(k, 2, 1, 5, pol)
		var chaserAt int64
		m.EjectFn = func(node int, p *Packet, now int64) {
			if p.Payload == "chaser" {
				chaserAt = now
			}
		}
		m.Inject(0, &Packet{ID: m.NextIDFor(0), Src: 0, Dst: 1, Flits: 1, Payload: "lead"}, k.Now())
		if !k.RunUntil(func() bool { return chaserAt != 0 }, 1000) {
			t.Fatal("chaser never delivered")
		}
		return chaserAt
	}
	fast := depart(true)
	slow := depart(false)
	if fast >= slow {
		t.Fatalf("expedited spawn (%d) not faster than normal (%d)", fast, slow)
	}
}

func TestInFlightAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 2, 2, 2, DestPolicy{})
	delivered := 0
	m.EjectFn = func(int, *Packet, int64) { delivered++ }
	for i := 0; i < 6; i++ {
		m.Inject(i%4, &Packet{ID: m.NextIDFor(0), Src: i % 4, Dst: (i + 1) % 4, Flits: 2}, k.Now())
	}
	if m.InFlight != 6 {
		t.Fatalf("InFlight=%d after 6 injections", m.InFlight)
	}
	if !k.RunUntil(func() bool { return delivered == 6 }, 1000) {
		t.Fatal("not all delivered")
	}
	if m.InFlight != 0 {
		t.Fatalf("InFlight=%d after drain", m.InFlight)
	}
	if m.DeliveredPackets != 6 {
		t.Fatalf("DeliveredPackets=%d", m.DeliveredPackets)
	}
}
