package network

import (
	"testing"
	"testing/quick"

	"innetcc/internal/sim"
)

func TestDirOpposite(t *testing.T) {
	cases := map[Dir]Dir{North: South, South: North, East: West, West: East}
	for d, want := range cases {
		if d.Opposite() != want {
			t.Fatalf("%v.Opposite() = %v, want %v", d, d.Opposite(), want)
		}
	}
	if Local.Opposite() != DirNone || DirNone.Opposite() != DirNone {
		t.Fatal("Local/DirNone opposite should be DirNone")
	}
}

func TestDirString(t *testing.T) {
	for d, want := range map[Dir]string{North: "N", South: "S", East: "E", West: "W", Local: "L", DirNone: "-"} {
		if d.String() != want {
			t.Fatalf("%d.String() = %q, want %q", d, d.String(), want)
		}
	}
}

// testMesh is the test shorthand for the old positional constructor: an
// open W-by-H mesh under the destination policy (or any policy).
func testMesh(k *sim.Kernel, w, h int, pipeline int64, vcs int, policy Policy) *Mesh {
	return Build(k, Config{Topo: Mesh2D{W: w, H: h}, Pipeline: pipeline, VCs: vcs, Policy: policy})
}

func TestXYToResolvesXFirst(t *testing.T) {
	m := Mesh2D{W: 4, H: 4}
	// From node 0 (0,0) to node 5 (1,1): X first -> East.
	if d := m.NextHop(0, 5); d != East {
		t.Fatalf("NextHop(0->5) = %v, want East", d)
	}
	// Same column: Y only.
	if d := m.NextHop(0, 4); d != South {
		t.Fatalf("NextHop(0->4) = %v, want South", d)
	}
	if d := m.NextHop(5, 4); d != West {
		t.Fatalf("NextHop(5->4) = %v, want West", d)
	}
	if d := m.NextHop(4, 0); d != North {
		t.Fatalf("NextHop(4->0) = %v, want North", d)
	}
	if d := m.NextHop(7, 7); d != Local {
		t.Fatalf("NextHop(self) = %v, want Local", d)
	}
}

func TestHopDist(t *testing.T) {
	m := Mesh2D{W: 4, H: 4}
	if d := m.Dist(0, 15); d != 6 {
		t.Fatalf("Dist(0,15) = %d, want 6", d)
	}
	if d := m.Dist(5, 5); d != 0 {
		t.Fatalf("Dist(self) = %d, want 0", d)
	}
	if m.Dist(3, 12) != m.Dist(12, 3) {
		t.Fatal("Dist not symmetric")
	}
}

func TestNeighborOf(t *testing.T) {
	// 4x4 mesh. Node 5 = (1,1).
	m := Mesh2D{W: 4, H: 4}
	cases := []struct {
		d    Dir
		want int
		ok   bool
	}{{North, 1, true}, {South, 9, true}, {East, 6, true}, {West, 4, true}}
	for _, c := range cases {
		got, ok := m.Neighbor(5, c.d)
		if got != c.want || ok != c.ok {
			t.Fatalf("Neighbor(5,%v) = %d,%v want %d,%v", c.d, got, ok, c.want, c.ok)
		}
	}
	// Edges.
	if _, ok := m.Neighbor(0, North); ok {
		t.Fatal("node 0 should have no north neighbor")
	}
	if _, ok := m.Neighbor(3, East); ok {
		t.Fatal("node 3 should have no east neighbor")
	}
	if _, ok := m.Neighbor(5, Local); ok {
		t.Fatal("Local is not a mesh neighbor")
	}
}

// Property: following NextHop step by step always reaches the destination
// in exactly Dist hops.
func TestXYRoutingConvergesProperty(t *testing.T) {
	topo := Mesh2D{W: 8, H: 8}
	err := quick.Check(func(a, b uint8) bool {
		from, to := int(a)%topo.Nodes(), int(b)%topo.Nodes()
		cur := from
		steps := 0
		for cur != to {
			d := topo.NextHop(cur, to)
			nb, ok := topo.Neighbor(cur, d)
			if !ok {
				return false
			}
			cur = nb
			steps++
			if steps > topo.W+topo.H {
				return false
			}
		}
		return steps == topo.Dist(from, to)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func deliverySetup(t *testing.T, w, h int, pipeline int64) (*sim.Kernel, *Mesh, map[uint64]int64) {
	t.Helper()
	k := sim.NewKernel(1)
	m := testMesh(k, w, h, pipeline, 1, DestPolicy{})
	delivered := make(map[uint64]int64)
	m.EjectFn = func(node int, p *Packet, now int64) {
		if node != p.Dst {
			t.Errorf("packet %d ejected at %d, want %d", p.ID, node, p.Dst)
		}
		delivered[p.ID] = now
	}
	return k, m, delivered
}

func TestSinglePacketLatency(t *testing.T) {
	// 1-flit packet, pipeline P, distance D hops: inject pipeline (P),
	// then per hop: 1 cycle link + P pipeline, then 1 cycle ejection.
	// Total = P + D*(1+P) + 1.
	const pipeline = 5
	k, m, delivered := deliverySetup(t, 4, 4, pipeline)
	p := &Packet{ID: m.NextIDFor(0), Src: 0, Dst: 3, Flits: 1}
	k.Step() // move off cycle 0
	start := k.Now()
	m.Inject(0, p, start)
	if !k.RunUntil(func() bool { return len(delivered) == 1 }, 1000) {
		t.Fatal("packet never delivered")
	}
	d := Mesh2D{W: 4, H: 4}.Dist(0, 3)
	want := start + pipeline + int64(d)*(1+pipeline) + 1
	if delivered[p.ID] != want {
		t.Fatalf("delivered at %d, want %d", delivered[p.ID], want)
	}
	if p.Hops != d {
		t.Fatalf("hops %d, want %d", p.Hops, d)
	}
}

func TestLocalDeliveryNoHops(t *testing.T) {
	k, m, delivered := deliverySetup(t, 4, 4, 5)
	p := &Packet{ID: m.NextIDFor(0), Src: 6, Dst: 6, Flits: 1}
	m.Inject(6, p, k.Now())
	if !k.RunUntil(func() bool { return len(delivered) == 1 }, 100) {
		t.Fatal("self packet never delivered")
	}
	if p.Hops != 0 {
		t.Fatalf("self delivery took %d hops", p.Hops)
	}
}

func TestMultiFlitSerialization(t *testing.T) {
	// Two 5-flit packets from the same source to the same destination:
	// the second must wait for the first to release each link, so their
	// delivery times differ by at least flits cycles.
	k, m, delivered := deliverySetup(t, 4, 1, 2)
	p1 := &Packet{ID: m.NextIDFor(0), Src: 0, Dst: 3, Flits: 5}
	p2 := &Packet{ID: m.NextIDFor(0), Src: 0, Dst: 3, Flits: 5}
	m.Inject(0, p1, k.Now())
	m.Inject(0, p2, k.Now())
	if !k.RunUntil(func() bool { return len(delivered) == 2 }, 1000) {
		t.Fatal("packets not delivered")
	}
	gap := delivered[p2.ID] - delivered[p1.ID]
	if gap < 5 {
		t.Fatalf("second packet only %d cycles behind; links not serializing flits", gap)
	}
}

func TestContentionDelaysCrossTraffic(t *testing.T) {
	// Many packets from distinct sources all target node 15 of a 4x4
	// mesh; the shared links near the destination force serialization,
	// so total delivery time must exceed a single packet's latency.
	k, m, delivered := deliverySetup(t, 4, 4, 2)
	const n = 8
	for i := 0; i < n; i++ {
		p := &Packet{ID: m.NextIDFor(0), Src: i, Dst: 15, Flits: 5}
		m.Inject(i, p, k.Now())
	}
	if !k.RunUntil(func() bool { return len(delivered) == n }, 5000) {
		t.Fatal("packets not delivered under contention")
	}
	var last int64
	for _, at := range delivered {
		if at > last {
			last = at
		}
	}
	// The ejection port at node 15 alone needs n*5 cycles of link time.
	if last < int64(n*5) {
		t.Fatalf("all delivered by %d, too fast for %d 5-flit packets through one ejection port", last, n)
	}
	if m.InFlight != 0 {
		t.Fatalf("InFlight = %d after drain, want 0", m.InFlight)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	k, m, delivered := deliverySetup(t, 4, 4, 3)
	want := 0
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			p := &Packet{ID: m.NextIDFor(0), Src: s, Dst: d, Flits: 1}
			m.Inject(s, p, k.Now())
			want++
		}
	}
	if !k.RunUntil(func() bool { return len(delivered) == want }, 20000) {
		t.Fatalf("delivered %d of %d", len(delivered), want)
	}
	if m.DeliveredPackets != int64(want) {
		t.Fatalf("DeliveredPackets=%d, want %d", m.DeliveredPackets, want)
	}
}

// consumePolicy consumes everything at a chosen node and forwards otherwise,
// exercising Steer.Consume and Steer.Spawn.
type consumePolicy struct {
	at       int
	consumed int
	spawned  bool
}

func (c *consumePolicy) Route(r *Router, p *Packet, now int64) Steer {
	if r.NodeID == c.at && p.Dst == c.at {
		st := Steer{Consume: true}
		if !c.spawned {
			c.spawned = true
			st.Spawn = []*Packet{{ID: r.mesh.NextIDFor(r.NodeID), Src: c.at, Dst: p.Src, Flits: 1}}
		}
		c.consumed++
		return st
	}
	return Steer{Out: r.Topo().NextHop(r.NodeID, p.Dst)}
}

func TestConsumeAndSpawn(t *testing.T) {
	k := sim.NewKernel(1)
	pol := &consumePolicy{at: 5}
	m := testMesh(k, 4, 4, 2, 1, pol)
	got := 0
	m.EjectFn = func(node int, p *Packet, now int64) {
		if node != 0 {
			t.Errorf("spawned packet ejected at %d, want 0", node)
		}
		got++
	}
	m.Inject(0, &Packet{ID: m.NextIDFor(0), Src: 0, Dst: 5, Flits: 1}, k.Now())
	if !k.RunUntil(func() bool { return got == 1 }, 1000) {
		t.Fatal("spawned reply never returned")
	}
	if pol.consumed != 1 {
		t.Fatalf("consumed %d packets, want 1", pol.consumed)
	}
	if m.InFlight != 0 {
		t.Fatalf("InFlight=%d after consume+spawn round trip", m.InFlight)
	}
}

// stallPolicy stalls one packet for a fixed number of cycles at a mid-path
// router, then releases it.
type stallPolicy struct {
	at     int
	nCalls int
	stalls int64
}

func (s *stallPolicy) Route(r *Router, p *Packet, now int64) Steer {
	if r.NodeID == s.at {
		s.nCalls++
		if p.StallCycles(now) < s.stalls {
			return Steer{Stall: true}
		}
	}
	return Steer{Out: r.Topo().NextHop(r.NodeID, p.Dst)}
}

func TestStallHoldsPacketAndRecalls(t *testing.T) {
	k := sim.NewKernel(1)
	pol := &stallPolicy{at: 1, stalls: 10}
	m := testMesh(k, 4, 1, 2, 1, pol)
	var deliveredAt int64
	m.EjectFn = func(node int, p *Packet, now int64) { deliveredAt = now }
	m.Inject(0, &Packet{ID: m.NextIDFor(0), Src: 0, Dst: 3, Flits: 1}, k.Now())
	if !k.RunUntil(func() bool { return deliveredAt != 0 }, 1000) {
		t.Fatal("stalled packet never delivered")
	}
	if pol.nCalls < 10 {
		t.Fatalf("policy consulted %d times during stall, want >= 10", pol.nCalls)
	}
	// Without the stall the trip is 2 + 3*(1+2) + 1 = 12 cycles; with a
	// 10-cycle stall it must take at least 22.
	if deliveredAt < 22 {
		t.Fatalf("delivered at %d despite 10-cycle stall", deliveredAt)
	}
}

func TestStallBlocksFIFOBehind(t *testing.T) {
	k := sim.NewKernel(1)
	pol := &stallPolicy{at: 1, stalls: 20}
	m := testMesh(k, 4, 1, 2, 1, pol)
	order := []uint64{}
	m.EjectFn = func(node int, p *Packet, now int64) { order = append(order, p.ID) }
	p1 := &Packet{ID: m.NextIDFor(0), Src: 0, Dst: 3, Flits: 1}
	p2 := &Packet{ID: m.NextIDFor(0), Src: 0, Dst: 2, Flits: 1}
	m.Inject(0, p1, k.Now())
	m.Inject(0, p2, k.Now())
	if !k.RunUntil(func() bool { return len(order) == 2 }, 1000) {
		t.Fatal("packets not delivered")
	}
	// p2 entered the same FIFO behind p1 and must be head-of-line
	// blocked: p1 (stalled 20 cycles but 1 hop farther) still ejects
	// before p2 can have gotten far.
	if order[0] != p2.ID && order[0] != p1.ID {
		t.Fatalf("unexpected order %v", order)
	}
	if m.InFlight != 0 {
		t.Fatal("packets leaked")
	}
}

func TestExtraHopDelay(t *testing.T) {
	const pipeline = 2
	k, m, delivered := deliverySetup(t, 4, 1, pipeline)
	for _, r := range m.Routers {
		r.ExtraHopDelay = 4
	}
	p := &Packet{ID: m.NextIDFor(0), Src: 0, Dst: 3, Flits: 1}
	m.Inject(0, p, k.Now())
	if !k.RunUntil(func() bool { return len(delivered) == 1 }, 1000) {
		t.Fatal("not delivered")
	}
	// Base: P + 3*(1+P) + 1 = 12. Extra 4 per router visit (4 visits).
	want := int64(12 + 4*4)
	if delivered[p.ID] != want {
		t.Fatalf("delivered at %d, want %d", delivered[p.ID], want)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Two input ports feed one output continuously; neither may starve.
	k := sim.NewKernel(1)
	m := testMesh(k, 3, 1, 1, 1, DestPolicy{})
	perSrc := map[int]int{}
	m.EjectFn = func(node int, p *Packet, now int64) { perSrc[p.Src]++ }
	// Nodes 0 and 2 both flood node 1.
	for i := 0; i < 20; i++ {
		m.Inject(0, &Packet{ID: m.NextIDFor(0), Src: 0, Dst: 1, Flits: 2}, k.Now())
		m.Inject(2, &Packet{ID: m.NextIDFor(0), Src: 2, Dst: 1, Flits: 2}, k.Now())
	}
	if !k.RunUntil(func() bool { return perSrc[0]+perSrc[2] == 40 }, 5000) {
		t.Fatalf("delivered %v", perSrc)
	}
	if perSrc[0] != 20 || perSrc[2] != 20 {
		t.Fatalf("unfair arbitration: %v", perSrc)
	}
}

func TestMeshPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build with zero-width mesh did not panic")
		}
	}()
	testMesh(sim.NewKernel(1), 0, 4, 5, 1, DestPolicy{})
}

func TestBuildDefaultsAndValidation(t *testing.T) {
	cfg := Config{Topo: Mesh2D{W: 2, H: 2}, Policy: DestPolicy{}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("minimal config invalid: %v", err)
	}
	if cfg.Pipeline != 1 || cfg.VCs != 1 {
		t.Fatalf("defaults not applied: pipeline=%d vcs=%d", cfg.Pipeline, cfg.VCs)
	}
	if err := (&Config{Policy: DestPolicy{}}).Validate(); err == nil {
		t.Fatal("nil Topo accepted")
	}
	if err := (&Config{Topo: Mesh2D{W: 2, H: 2}}).Validate(); err == nil {
		t.Fatal("nil Policy accepted")
	}
	if err := (&Config{Topo: Mesh2D{W: 2, H: 2}, Policy: DestPolicy{}, Pipeline: -1}).Validate(); err == nil {
		t.Fatal("negative pipeline accepted")
	}
}

// TestValidateSlotLimit pins the per-router input-FIFO cap: ports x VCs
// must fit the 64-bit occupied-slot mask.
func TestValidateSlotLimit(t *testing.T) {
	for _, tc := range []struct {
		topo Topology
		vcs  int
		ok   bool
	}{
		{Mesh2D{W: 4, H: 4}, 10, true},  // 6 ports x 10 = 60 slots
		{Mesh2D{W: 4, H: 4}, 11, false}, // 66 slots
		{Ring{N: 8}, 16, true},          // 4 ports x 16 = 64 slots
		{Ring{N: 8}, 17, false},         // 68 slots
	} {
		err := (&Config{Topo: tc.topo, VCs: tc.vcs, Policy: DestPolicy{}}).Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s with %d VCs: err = %v, want ok=%v", tc.topo.Spec(), tc.vcs, err, tc.ok)
		}
	}
}
