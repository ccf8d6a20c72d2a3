package protocol

import (
	"testing"

	"innetcc/internal/network"
	"innetcc/internal/trace"
)

// echoEngine is a minimal coherence engine for machine-level tests: every
// miss is sent to the line's home node and answered with a reply after a
// fixed service delay; writes commit at the requester.
type echoEngine struct {
	m       *Machine
	service int64
	misses  int
	// issued records every StartMiss as {cycle, node}, in call order.
	issued [][2]int64
}

func newEchoEngine(m *Machine) *echoEngine {
	e := &echoEngine{m: m, service: 4}
	mesh := network.Build(m.Kernel, network.Config{
		Topo:     m.Cfg.Topology.Build(),
		Pipeline: m.Cfg.BasePipeline,
		Policy:   network.DestPolicy{},
	})
	m.AttachEngine(e, mesh)
	return e
}

func (e *echoEngine) StartMiss(node int, addr uint64, write bool, now int64) {
	e.misses++
	e.issued = append(e.issued, [2]int64{now, int64(node)})
	t := RdReq
	if write {
		t = WrReq
	}
	msg := &Msg{Type: t, Addr: addr, Requester: node, IssuedAt: now, Attempt: e.m.CurrentAttempt(node)}
	e.m.Mesh.Inject(node, e.m.NewPacket(node, e.m.Cfg.Home(addr), msg), now)
}

func (e *echoEngine) Eject(node int, p *network.Packet, now int64) {
	msg := p.Payload.(*Msg)
	switch msg.Type {
	case RdReq:
		e.m.Kernel.Schedule(e.service, func() {
			v := e.m.Mem.Read(msg.Addr)
			e.m.Check.SampleRead(msg.Addr, v, v, msg.Requester, e.m.Kernel.Now())
			reply := &Msg{Type: RdReply, Addr: msg.Addr, Requester: msg.Requester, Version: v, IssuedAt: msg.IssuedAt, Attempt: msg.Attempt}
			e.m.Mesh.Inject(node, e.m.NewPacket(node, msg.Requester, reply), e.m.Kernel.Now())
		})
	case WrReq:
		e.m.Kernel.Schedule(e.service, func() {
			reply := &Msg{Type: WrReply, Addr: msg.Addr, Requester: msg.Requester, IssuedAt: msg.IssuedAt, Attempt: msg.Attempt}
			e.m.Mesh.Inject(node, e.m.NewPacket(node, msg.Requester, reply), e.m.Kernel.Now())
		})
	case RdReply, WrReply:
		if e.m.DropStaleReply(node, msg) {
			return
		}
		e.complete(node, msg, now)
	}
}

func (e *echoEngine) complete(node int, msg *Msg, now int64) {
	switch msg.Type {
	case RdReply:
		// Complete uncached: the echo engine does not maintain
		// invalidations, so caching would defeat the verifier.
		e.m.Check.ObserveRead(msg.Addr, msg.Version, node, now, false)
		e.m.CompleteAccess(node, false, now, 0)
	case WrReply:
		v := e.m.Check.CommitWrite(msg.Addr, node, now)
		e.m.Mem.Writeback(msg.Addr, v)
		e.m.CompleteAccess(node, true, now, 0)
	}
}

func (e *echoEngine) OnL2Evict(int, uint64, DataLine, int64) {}
func (e *echoEngine) Quiesced() bool                         { return true }

func echoTrace(scripts map[int][]trace.Access) *trace.Trace {
	tr := &trace.Trace{Name: "echo", PerNode: make([][]trace.Access, 16)}
	for n, s := range scripts {
		tr.PerNode[n] = s
	}
	return tr
}

func TestMachineRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = network.TopoSpec{Kind: "mesh", W: 0, H: 4}
	if _, err := Build(Spec{Config: cfg, Trace: echoTrace(nil), Think: 5}); err == nil {
		t.Fatal("bad mesh accepted")
	}
	cfg = DefaultConfig()
	if _, err := Build(Spec{Config: cfg, Trace: &trace.Trace{PerNode: make([][]trace.Access, 3)}, Think: 5}); err == nil {
		t.Fatal("trace/node mismatch accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.BasePipeline = 0 },
		func(c *Config) { c.TreeEntries = 5 },
		func(c *Config) { c.DirWays = 0 },
		func(c *Config) { c.L2Entries = -1 },
		func(c *Config) { c.BackoffMax = c.BackoffMin - 1 },
		func(c *Config) { c.CtrlFlits = 0 },
		func(c *Config) { c.Topology = network.TopoSpec{Kind: "hypercube", W: 4, H: 4} },
		func(c *Config) { c.Topology = network.TorusSpec(1, 4) },
		func(c *Config) { c.Topology = network.RingSpec(1) },
	}
	for i, mod := range bad {
		cfg := DefaultConfig()
		mod(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestHomeMapping(t *testing.T) {
	cfg := DefaultConfig()
	seen := map[int]bool{}
	for a := uint64(0); a < 64; a++ {
		h := cfg.Home(a)
		if h < 0 || h >= cfg.Nodes() {
			t.Fatalf("home %d out of range", h)
		}
		seen[h] = true
	}
	if len(seen) != cfg.Nodes() {
		t.Fatalf("homes cover %d of %d nodes", len(seen), cfg.Nodes())
	}
}

func TestRequirementFourSerializesPerNode(t *testing.T) {
	// A node's second access must not be issued before its first reply
	// returns: with the echo engine, misses arrive one at a time.
	cfg := DefaultConfig()
	m, err := Build(Spec{Config: cfg, Trace: echoTrace(map[int][]trace.Access{
		3: {trace.NewAccess(1, false), trace.NewAccess(2, false), trace.NewAccess(3, false)},
	}), Think: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := newEchoEngine(m)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if e.misses != 3 {
		t.Fatalf("%d misses, want 3", e.misses)
	}
	if m.Lat.Read.N != 3 {
		t.Fatalf("%d completions, want 3", m.Lat.Read.N)
	}
	// Serialized round trips can never overlap: total runtime must be at
	// least 3x one round trip (which is > 2*pipeline).
	if m.Kernel.Now() < 3*2*cfg.BasePipeline {
		t.Fatalf("finished suspiciously fast at cycle %d", m.Kernel.Now())
	}
}

func TestLocalHitsBypassEngine(t *testing.T) {
	cfg := DefaultConfig()
	m, err := Build(Spec{Config: cfg, Trace: echoTrace(map[int][]trace.Access{
		2: {trace.NewAccess(8, true), trace.NewAccess(8, true), trace.NewAccess(8, false)},
	}), Think: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := newEchoEngine(m)
	// Pre-install the line as Modified so every access is a local hit.
	m.InstallLine(2, 8, Modified, 0, 0)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if e.misses != 0 {
		t.Fatalf("local hits leaked %d misses to the engine", e.misses)
	}
	if m.LocalHits != 3 {
		t.Fatalf("LocalHits=%d, want 3", m.LocalHits)
	}
}

func TestUpgradeMissForSharedWrite(t *testing.T) {
	cfg := DefaultConfig()
	m, err := Build(Spec{Config: cfg, Trace: echoTrace(map[int][]trace.Access{
		2: {trace.NewAccess(8, true)},
	}), Think: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := newEchoEngine(m)
	m.InstallLine(2, 8, Shared, 0, 0)
	m.InvalidateLine(2, 8, 0) // drop it again so the verifier stays exact
	m.InstallLine(2, 8, Shared, 0, 0)
	if err := m.Run(1_000_000); err == nil {
		// A write to a Shared line must reach the engine as a miss.
		if e.misses != 1 {
			t.Fatalf("shared-write upgrade produced %d misses, want 1", e.misses)
		}
	} else {
		t.Fatal(err)
	}
}

func TestNICScheduleSerializes(t *testing.T) {
	cfg := DefaultConfig()
	m, err := Build(Spec{Config: cfg, Trace: echoTrace(nil), Think: 1})
	if err != nil {
		t.Fatal(err)
	}
	newEchoEngine(m)
	var done []int64
	for i := 0; i < 3; i++ {
		m.NICSchedule(0, 10, func() { done = append(done, m.Kernel.Now()) })
	}
	m.Kernel.Run(100)
	if len(done) != 3 {
		t.Fatalf("%d NIC services ran, want 3", len(done))
	}
	// Single-ported: completions at 10, 20, 30.
	for i, at := range done {
		want := int64(10 * (i + 1))
		if at != want {
			t.Fatalf("service %d finished at %d, want %d", i, at, want)
		}
	}
	// A different node's port is independent.
	var other int64
	m.NICSchedule(1, 10, func() { other = m.Kernel.Now() })
	m.Kernel.Run(200)
	if other != 110 {
		t.Fatalf("node 1 service at %d, want 110", other)
	}
}

func TestInstallEvictionWritesBackDirty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Entries, cfg.L2Ways = 2, 1
	m, err := Build(Spec{Config: cfg, Trace: echoTrace(nil), Think: 1})
	if err != nil {
		t.Fatal(err)
	}
	newEchoEngine(m)
	m.Check.RegisterCopy(0, 0) // make CommitWrite's registry exact
	v := m.Check.CommitWrite(0, 0, 0)
	m.InstallLine(0, 0, Modified, v, 0)
	// Alias in the same set evicts the dirty line.
	m.InstallLine(0, 2, Shared, 0, 0)
	m.Kernel.Run(5)
	if got := m.Mem.Peek(0); got != v {
		t.Fatalf("dirty eviction did not write back: mem=%d want %d", got, v)
	}
	if m.Counters.Get("l2.evictions") != 1 {
		t.Fatalf("eviction counter %d, want 1", m.Counters.Get("l2.evictions"))
	}
}

func TestStuckReportNamesBlockedAccess(t *testing.T) {
	cfg := DefaultConfig()
	m, err := Build(Spec{Config: cfg, Trace: echoTrace(map[int][]trace.Access{5: {trace.NewAccess(0x77, false)}}), Think: 1})
	if err != nil {
		t.Fatal(err)
	}
	// blackholeEngine: swallows every miss.
	mesh := network.Build(m.Kernel, network.Config{
		Topo:     cfg.Topology.Build(),
		Pipeline: cfg.BasePipeline,
		Policy:   network.DestPolicy{},
	})
	m.AttachEngine(blackhole{}, mesh)
	err = m.Run(1000)
	if err == nil {
		t.Fatal("blackhole run did not report stuck")
	}
	if got := err.Error(); !contains(got, "0x77") || !contains(got, "node 5") {
		t.Fatalf("stuck report missing context: %q", got)
	}
}

type blackhole struct{}

func (blackhole) StartMiss(int, uint64, bool, int64)     {}
func (blackhole) Eject(int, *network.Packet, int64)      {}
func (blackhole) OnL2Evict(int, uint64, DataLine, int64) {}
func (blackhole) Quiesced() bool                         { return true }

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMsgTypeStrings(t *testing.T) {
	types := []MsgType{RdReq, WrReq, RdReply, WrReply, Inv, InvAck, Fwd, FwdDone, FwdMiss, WbNotice, Teardown, TdAck}
	seen := map[string]bool{}
	for _, tp := range types {
		s := tp.String()
		if s == "" || seen[s] {
			t.Fatalf("message type %d has bad/duplicate name %q", tp, s)
		}
		seen[s] = true
	}
	if !RdReply.IsData() || !Fwd.IsData() {
		t.Fatal("data-bearing types misclassified")
	}
	if WrReply.IsData() || Teardown.IsData() {
		t.Fatal("control types misclassified as data")
	}
}

func TestDStateString(t *testing.T) {
	if Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("DState strings wrong")
	}
}
