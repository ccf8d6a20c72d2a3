package network

import (
	"testing"

	"innetcc/internal/fault"
	"innetcc/internal/sim"
)

// pingPongPolicy bounces a packet between the two routers of a 2x1 mesh
// forever: the packet never ejects, so the measurement below exercises the
// full route/arbitrate/hand-off cycle with no delivery path.
type pingPongPolicy struct{}

func (pingPongPolicy) Route(r *Router, p *Packet, _ int64) Steer {
	if _, ok := r.Topo().Neighbor(r.NodeID, East); ok {
		return Steer{Out: East}
	}
	return Steer{Out: West}
}

// TestRouterTickZeroAllocsSteadyState is the hot-path allocation proof the
// active-set kernel pairs with: once the ring FIFOs have warmed up, a
// ticking router allocates nothing — not for routing, arbitration,
// neighbor hand-off, or the kernel's own event/park bookkeeping.
func TestRouterTickZeroAllocsSteadyState(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 2, 1, 2, pingPongPolicy{})
	m.EjectFn = func(int, *Packet, int64) {}
	p := m.AllocPacket()
	p.ID = m.NextIDFor(0)
	p.Flits = 1
	m.Inject(0, p, k.Now())
	k.Run(100) // warm the rings and reach steady state
	allocs := testing.AllocsPerRun(1000, func() { k.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state kernel step allocated %.2f per run, want 0", allocs)
	}
}

// TestEjectReinjectZeroAllocsSteadyState extends the steady-state guard
// to the delivery path: packets eject at their destination, and EjectFn
// answers each with a fresh pool packet back to the sender, so every step
// may route, grant the local port, run a deferred ejection on the event
// heap and recycle a packet. Once the free-list holds the packets in
// flight, a step allocates nothing: the ejection rides a kernel callback with the
// packet as its operand, not a closure per packet.
func TestEjectReinjectZeroAllocsSteadyState(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 2, 2, 2, DestPolicy{})
	ejected := 0
	m.EjectFn = func(node int, p *Packet, now int64) {
		ejected++
		q := m.AllocPacket()
		q.ID = m.NextIDFor(node)
		q.Src, q.Dst, q.Flits = node, p.Src, p.Flits
		m.Inject(node, q, now)
	}
	for i := 0; i < 32; i++ {
		p := m.AllocPacket()
		p.ID = m.NextIDFor(i % 4)
		p.Src, p.Dst, p.Flits = i%4, 3-i%4, 1
		m.Inject(i%4, p, k.Now())
	}
	k.Run(300) // warm the rings, the free-list and the event heap
	before := ejected
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() { k.Step() })
	// AllocsPerRun rounds down, so an allocation per ejection shows only
	// if there is at least one ejection per step.
	if per := float64(ejected-before) / (runs + 1); per < 1 {
		t.Fatalf("%.2f ejections per step while measuring, want >= 1", per)
	}
	if allocs != 0 {
		t.Fatalf("steady-state step with ejections allocated %.2f per run, want 0", allocs)
	}
}

// TestIdleRouterTickZeroAllocs pins the idle cost: a router with drained
// FIFOs allocates nothing when ticked (and under the active-set kernel it
// is not ticked at all).
func TestIdleRouterTickZeroAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 4, 4, 2, DestPolicy{})
	m.EjectFn = func(int, *Packet, int64) {}
	r := m.Routers[5]
	allocs := testing.AllocsPerRun(1000, func() { r.Tick(10) })
	if allocs != 0 {
		t.Fatalf("idle router tick allocated %.2f per run, want 0", allocs)
	}
}

// TestSoAHotPathZeroAllocsMultiRouter is the structure-of-arrays regression
// guard: with several packets in flight across a row of routers — FIFO ring
// reuse, busyTill credit updates, arbitration stamps and barrier mailbox
// hand-offs all live in the mesh's flat arrays — a steady-state kernel step
// must still allocate nothing. A refactor that reintroduces per-tick heap
// state (boxing, slice growth, map lookups) fails here before it shows up
// in profiles.
func TestSoAHotPathZeroAllocsMultiRouter(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 4, 1, 2, pingPongPolicy{})
	m.EjectFn = func(int, *Packet, int64) {}
	for i := 0; i < 3; i++ {
		p := m.AllocPacket()
		p.ID = m.NextIDFor(i)
		p.Flits = 1 + i
		m.Inject(i, p, k.Now())
	}
	k.Run(200) // warm every ring and mailbox on the packets' orbit
	allocs := testing.AllocsPerRun(1000, func() { k.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state multi-router step allocated %.2f per run, want 0", allocs)
	}
}

// TestRouterTickZeroAllocsInstrumented extends the steady-state guard to
// the fully armed router: metrics on (queue integrals, grants, serial-wait
// charges) and a fault injector consulted at every link grant. The per-tick arbitration record lives on
// the stack, so a steady-state step still allocates nothing.
func TestRouterTickZeroAllocsInstrumented(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 4, 1, 2, pingPongPolicy{})
	m.EjectFn = func(int, *Packet, int64) {}
	m.Metrics = testNoC(m)
	spec := fault.DefaultSpec()
	spec.StallPPM, spec.StallLen = 100_000, 4
	m.Faults = &fault.Injector{Plan: spec.Plan(3)}
	for i := 0; i < 4; i++ {
		p := m.AllocPacket()
		p.ID = m.NextIDFor(i)
		p.Flits = 1 + i
		m.Inject(i, p, k.Now())
	}
	k.Run(500) // warm every ring and mailbox on the packets' orbit
	allocs := testing.AllocsPerRun(1000, func() { k.Step() })
	if allocs != 0 {
		t.Fatalf("instrumented steady-state step allocated %.2f per run, want 0", allocs)
	}
	if m.Faults.StallCycles == 0 {
		t.Fatal("injector never stalled a link: the armed path was not exercised")
	}
	var serial int64
	for _, v := range m.Metrics.SerialWait {
		serial += v
	}
	if serial == 0 {
		t.Fatal("no serial-wait charge: the metrics path was not exercised")
	}
}

// TestPacketFreeListRecycles verifies pool packets return to the free-list
// after delivery while literal-built packets (whose references a test
// harness may retain) are never recycled.
func TestPacketFreeListRecycles(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 2, 1, 1, DestPolicy{})
	delivered := 0
	m.EjectFn = func(int, *Packet, int64) { delivered++ }

	pooled := m.AllocPacket()
	pooled.ID = m.NextIDFor(0)
	pooled.Dst = 1
	pooled.Flits = 1
	pooled.Payload = "payload"
	m.Inject(0, pooled, k.Now())
	k.Run(50)
	if delivered != 1 {
		t.Fatalf("pooled packet not delivered (delivered=%d)", delivered)
	}
	// The free-list is a LIFO stack: the next allocation reuses it.
	if got := m.AllocPacket(); got != pooled {
		t.Error("delivered pool packet was not recycled to the free-list")
	} else if got.Payload != nil || got.Dst != 0 || !got.pooled {
		t.Errorf("recycled packet not reset: %+v", got)
	}

	literal := &Packet{ID: m.NextIDFor(0), Dst: 1, Flits: 1}
	m.Inject(0, literal, k.Now())
	k.Run(k.Now() + 50)
	if delivered != 2 {
		t.Fatalf("literal packet not delivered (delivered=%d)", delivered)
	}
	if got := m.AllocPacket(); got == literal {
		t.Error("literal-built packet was recycled; external references would be corrupted")
	}
}

// TestPoolHoldsPeakInFlight: router 0 streams packets to router 3 for
// many rounds. Each packet is allocated at the sender and dies at the
// receiver, so only a fabric-wide free-list lets the sender reuse it: the
// pool creates no more packets than were ever in flight at once.
func TestPoolHoldsPeakInFlight(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 4, 1, 2, DestPolicy{})
	delivered := 0
	m.EjectFn = func(int, *Packet, int64) { delivered++ }
	const rounds = 500
	created := map[*Packet]bool{}
	peak := 0
	for i := 0; i < rounds; i++ {
		p := m.AllocPacket()
		created[p] = true
		p.ID, p.Src, p.Dst, p.Flits = m.NextIDFor(0), 0, 3, 1+i%2
		m.Inject(0, p, k.Now())
		peak = max(peak, m.InFlight)
		k.Run(k.Now() + 2)
	}
	k.Run(k.Now() + 100)
	if delivered != rounds || m.InFlight != 0 {
		t.Fatalf("delivered %d of %d, %d in flight", delivered, rounds, m.InFlight)
	}
	if len(created) > peak {
		t.Fatalf("pool created %d packets for a peak of %d in flight", len(created), peak)
	}
}

// TestRoutersParkWhenDrained checks the mesh side of the active-set
// contract: after traffic drains, every router reports quiescence, and an
// injection wakes exactly the routers the packet traverses.
func TestRoutersParkWhenDrained(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 4, 4, 2, DestPolicy{})
	m.EjectFn = func(int, *Packet, int64) {}
	p := m.AllocPacket()
	p.ID = m.NextIDFor(0)
	p.Dst = 15
	p.Flits = 3
	m.Inject(0, p, k.Now())
	k.Run(200)
	if m.InFlight != 0 {
		t.Fatalf("traffic did not drain: %d in flight", m.InFlight)
	}
	for _, r := range m.Routers {
		if !r.Quiescent() {
			t.Errorf("router %d not quiescent after drain (queued=%d)", r.NodeID, r.QueuedPackets())
		}
	}
}
