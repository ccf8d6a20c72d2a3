package network

import (
	"testing"

	"innetcc/internal/fault"
	"innetcc/internal/sim"
)

// faultSetup builds a mesh with an armed injector and records ejections and
// drop notifications.
func faultSetup(t *testing.T, spec fault.Spec, seed uint64) (*sim.Kernel, *Mesh, *map[uint64]int64, *[]fault.DropReason) {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatalf("bad spec: %v", err)
	}
	k := sim.NewKernel(1)
	m := testMesh(k, 4, 4, 2, DestPolicy{})
	delivered := make(map[uint64]int64)
	m.EjectFn = func(node int, p *Packet, now int64) { delivered[p.ID] = now }
	var reasons []fault.DropReason
	m.Faults = &fault.Injector{Plan: spec.Plan(seed)}
	m.DropFn = func(p *Packet, reason fault.DropReason, now int64) { reasons = append(reasons, reason) }
	return k, m, &delivered, &reasons
}

func TestInjectedDropRemovesPacket(t *testing.T) {
	spec := fault.DefaultSpec()
	spec.DropPPM = 1_000_000
	spec.Scope = fault.ScopeAll
	k, m, delivered, reasons := faultSetup(t, spec, 7)
	p := m.AllocPacket()
	p.ID, p.Src, p.Dst, p.Flits = m.NextIDFor(0), 0, 3, 1
	m.Inject(0, p, k.Now())
	k.Run(200)
	if len(*delivered) != 0 {
		t.Fatalf("packet delivered despite a full-rate drop plan")
	}
	if m.InFlight != 0 {
		t.Fatalf("InFlight = %d after drop, want 0 (leak)", m.InFlight)
	}
	if m.Faults.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", m.Faults.Drops)
	}
	if len(*reasons) != 1 || (*reasons)[0] != fault.DropInjected {
		t.Fatalf("DropFn reasons = %v, want [injected]", *reasons)
	}
}

func TestScopeRetryableSparesNonRetryablePackets(t *testing.T) {
	spec := fault.DefaultSpec()
	spec.DropPPM = 1_000_000 // drop and corrupt every opportunity...
	spec.CorruptPPM = 1_000_000
	spec.Scope = fault.ScopeRetryable
	k, m, delivered, _ := faultSetup(t, spec, 7)
	p := m.AllocPacket()
	p.ID, p.Src, p.Dst, p.Flits = m.NextIDFor(0), 0, 3, 1
	// ...but the packet is not retryable, so the request scope spares it.
	m.Inject(0, p, k.Now())
	k.Run(200)
	if len(*delivered) != 1 {
		t.Fatal("non-retryable packet dropped under scope=req")
	}
	if m.Faults.Drops != 0 || m.Faults.Corruptions != 0 {
		t.Fatalf("Drops = %d, Corruptions = %d, want 0", m.Faults.Drops, m.Faults.Corruptions)
	}
}

func TestScopeRetryableDropsMarkedPackets(t *testing.T) {
	spec := fault.DefaultSpec()
	spec.DropPPM = 1_000_000
	spec.Scope = fault.ScopeRetryable
	k, m, delivered, reasons := faultSetup(t, spec, 7)
	p := m.AllocPacket()
	p.ID, p.Src, p.Dst, p.Flits, p.Retryable = m.NextIDFor(0), 0, 3, 1, true
	m.Inject(0, p, k.Now())
	k.Run(200)
	if len(*delivered) != 0 || len(*reasons) != 1 {
		t.Fatalf("retryable packet survived a full-rate drop plan (delivered=%d reasons=%v)",
			len(*delivered), *reasons)
	}
}

func TestCorruptionCaughtByChecksum(t *testing.T) {
	spec := fault.DefaultSpec()
	spec.CorruptPPM = 1_000_000
	k, m, delivered, reasons := faultSetup(t, spec, 7)
	p := m.AllocPacket()
	// Retryable, so the default request scope lets the plan corrupt it.
	p.ID, p.Src, p.Dst, p.Flits, p.Retryable = m.NextIDFor(0), 0, 3, 1, true
	m.Inject(0, p, k.Now())
	k.Run(500)
	if len(*delivered) != 0 {
		t.Fatal("corrupted packet was delivered; checksum verification missed it")
	}
	if m.InFlight != 0 {
		t.Fatalf("InFlight = %d after checksum drop, want 0", m.InFlight)
	}
	if m.Faults.Corruptions == 0 || m.Faults.ChecksumDrops == 0 {
		t.Fatalf("corruptions=%d checksum_drops=%d, want both > 0",
			m.Faults.Corruptions, m.Faults.ChecksumDrops)
	}
	if len(*reasons) != 1 || (*reasons)[0] != fault.DropChecksum {
		t.Fatalf("DropFn reasons = %v, want [checksum]", *reasons)
	}
}

func TestLocalEjectionNeverFaulted(t *testing.T) {
	// Drops, stalls and corruption only touch inter-router links: a packet
	// already at its destination router must eject even under a full-rate
	// chaos plan, or home-node bookkeeping would wedge unrecoverably.
	spec := fault.DefaultSpec()
	spec.DropPPM, spec.CorruptPPM, spec.StallPPM = 1_000_000, 1_000_000, 1_000_000
	spec.Scope = fault.ScopeAll
	k, m, delivered, _ := faultSetup(t, spec, 7)
	p := m.AllocPacket()
	p.ID, p.Src, p.Dst, p.Flits = m.NextIDFor(0), 6, 6, 1
	m.Inject(6, p, k.Now())
	k.Run(200)
	if len(*delivered) != 1 {
		t.Fatal("self-addressed packet did not eject under a chaos plan")
	}
}

func TestStallDelaysDelivery(t *testing.T) {
	run := func(spec fault.Spec) int64 {
		k := sim.NewKernel(1)
		m := testMesh(k, 4, 4, 2, DestPolicy{})
		var at int64 = -1
		m.EjectFn = func(node int, p *Packet, now int64) { at = now }
		if spec.Injecting() {
			m.Faults = &fault.Injector{Plan: spec.Plan(7)}
		}
		p := m.AllocPacket()
		p.ID, p.Src, p.Dst, p.Flits = m.NextIDFor(0), 0, 3, 1
		m.Inject(0, p, k.Now())
		k.Run(2000)
		return at
	}
	clean := run(fault.DefaultSpec())
	stalled := fault.DefaultSpec()
	stalled.StallPPM = 1_000_000
	stalled.StallLen = 8
	stalled.End = 64 // freeze every link for the first 64 cycles, then heal
	faulty := run(stalled)
	if clean < 0 || faulty < 0 {
		t.Fatalf("delivery missing: clean=%d faulty=%d", clean, faulty)
	}
	if faulty <= clean {
		t.Fatalf("stalled delivery at %d not later than clean %d", faulty, clean)
	}
}

// TestFaultScheduleDeterministicAcrossRuns: two identically-seeded meshes
// under the same plan drop the same packets at the same cycles.
func TestFaultScheduleDeterministicAcrossRuns(t *testing.T) {
	spec := fault.DefaultSpec()
	spec.DropPPM = 300_000
	spec.Scope = fault.ScopeAll
	run := func() (map[uint64]int64, int64) {
		k := sim.NewKernel(1)
		m := testMesh(k, 4, 4, 2, DestPolicy{})
		delivered := make(map[uint64]int64)
		m.EjectFn = func(node int, p *Packet, now int64) { delivered[p.ID] = now }
		m.Faults = &fault.Injector{Plan: spec.Plan(99)}
		for s := 0; s < 16; s++ {
			for d := 0; d < 16; d++ {
				if s == d {
					continue
				}
				p := m.AllocPacket()
				p.ID, p.Src, p.Dst, p.Flits = m.NextIDFor(0), s, d, 1
				m.Inject(s, p, k.Now())
			}
		}
		k.Run(5000)
		return delivered, m.Faults.Drops
	}
	d1, drops1 := run()
	d2, drops2 := run()
	if drops1 == 0 {
		t.Fatal("30% drop plan dropped nothing; test is vacuous")
	}
	if drops1 != drops2 || len(d1) != len(d2) {
		t.Fatalf("runs diverged: drops %d vs %d, delivered %d vs %d", drops1, drops2, len(d1), len(d2))
	}
	for id, at := range d1 {
		if d2[id] != at {
			t.Fatalf("packet %d delivered at %d vs %d", id, at, d2[id])
		}
	}
}

// TestChecksumCoversRoutingHeader: the integrity word is computed over the
// immutable routing header only, so legitimate in-flight mutation (hop
// counts, timestamps) never trips verification.
func TestChecksumCoversRoutingHeader(t *testing.T) {
	p := &Packet{ID: 12, Src: 1, Dst: 14, Flits: 3}
	sum := ChecksumOf(p)
	p.Hops = 5
	p.InjectedAt = 77
	if ChecksumOf(p) != sum {
		t.Fatal("checksum changed under legitimate in-flight mutation")
	}
	p.Dst = 2
	if ChecksumOf(p) == sum {
		t.Fatal("checksum blind to header corruption")
	}
}
