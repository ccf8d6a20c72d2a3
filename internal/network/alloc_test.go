package network

import (
	"testing"

	"innetcc/internal/fault"
	"innetcc/internal/metrics"
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
	m := testMesh(k, 2, 1, 2, 1, pingPongPolicy{})
	m.EjectFn = func(int, *Packet, int64) {}
	p := m.AllocPacketFor(0)
	p.ID = m.NextIDFor(0)
	p.Flits = 1
	m.Inject(0, p, k.Now())
	k.Run(100) // warm the rings and reach steady state
	allocs := testing.AllocsPerRun(1000, func() { k.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state kernel step allocated %.2f per run, want 0", allocs)
	}
}

// TestIdleRouterTickZeroAllocs pins the idle cost: a router with drained
// FIFOs allocates nothing when ticked (and under the active-set kernel it
// is not ticked at all).
func TestIdleRouterTickZeroAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 4, 4, 2, 1, DestPolicy{})
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
	m := testMesh(k, 4, 1, 2, 2, pingPongPolicy{})
	m.EjectFn = func(int, *Packet, int64) {}
	for i := 0; i < 3; i++ {
		p := m.AllocPacketFor(i)
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
// the fully armed router: two VCs with traffic in both classes, metrics
// on (queue integrals, grants, serial-wait charges) and a fault injector
// consulted at every link grant. The per-tick arbitration record lives on
// the stack, so a steady-state step still allocates nothing.
func TestRouterTickZeroAllocsInstrumented(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 4, 1, 2, 2, pingPongPolicy{})
	m.EjectFn = func(int, *Packet, int64) {}
	m.Metrics = metrics.NewNoC(m.Nodes(), m.InPorts(), m.OutPorts(), m.VCCount)
	spec := fault.DefaultSpec()
	spec.StallPPM, spec.StallLen = 100_000, 4
	m.Faults = &fault.Injector{Plan: spec.Plan(3)}
	for i := 0; i < 4; i++ {
		p := m.AllocPacketFor(i)
		p.ID = m.NextIDFor(i)
		p.Flits = 1 + i
		p.Class = VC(i % 2)
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
	m := testMesh(k, 2, 1, 1, 1, DestPolicy{})
	delivered := 0
	m.EjectFn = func(int, *Packet, int64) { delivered++ }

	pooled := m.AllocPacketFor(0)
	pooled.ID = m.NextIDFor(0)
	pooled.Dst = 1
	pooled.Flits = 1
	pooled.Payload = "payload"
	m.Inject(0, pooled, k.Now())
	k.Run(50)
	if delivered != 1 {
		t.Fatalf("pooled packet not delivered (delivered=%d)", delivered)
	}
	// Packets recycle at the router where they die — the destination.
	if got := m.AllocPacketFor(1); got != pooled {
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
	if got := m.AllocPacketFor(1); got == literal {
		t.Error("literal-built packet was recycled; external references would be corrupted")
	}
}

// TestRoutersParkWhenDrained checks the mesh side of the active-set
// contract: after traffic drains, every router reports quiescence, and an
// injection wakes exactly the routers the packet traverses.
func TestRoutersParkWhenDrained(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 4, 4, 2, 1, DestPolicy{})
	m.EjectFn = func(int, *Packet, int64) {}
	p := m.AllocPacketFor(0)
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
