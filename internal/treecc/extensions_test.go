package treecc

import (
	"testing"
	"testing/quick"

	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

func TestReplicationStaysCoherent(t *testing.T) {
	// The Section 4 replication extension must preserve every invariant
	// under sharing-heavy traffic (runTrace fails on violations and
	// checks the structural tree invariants).
	cfg := smallConfig()
	cfg.Replication = true
	p, _ := trace.ProfileByName("wsp")
	tr := trace.Generate(p, 16, 300, 5)
	m, _ := runTrace(t, cfg, tr, p.Think)
	if m.Counters.Get("tree.replicas") == 0 {
		t.Fatal("replication enabled but no replicas were installed")
	}
}

func TestReplicationProducesExtraServePoints(t *testing.T) {
	// Hand-built scenario: node 0 writes (root at 0), node 3 reads —
	// the reply crosses nodes 1 and 2 and should leave copies there, so
	// a later read by node 2's neighbour can be served midway.
	scripts := map[int][]trace.Access{
		0: {{Addr: 0x30, Write: true}},
		3: {{Addr: 0x30}, {Addr: 0x30}},
		2: {{Addr: 0x30}},
	}
	cfg := smallConfig()
	cfg.Replication = true
	m, e := runTrace(t, cfg, handTrace(scripts), 12)
	replicas := m.Counters.Get("tree.replicas")
	if replicas == 0 {
		t.Skip("timing did not produce a replica in this interleaving")
	}
	// Every replica node must hold data anchored in the tree.
	for n := 0; n < 16; n++ {
		if line, ok := e.Tree(n).Peek(0x30); ok && line.LocalValid {
			if _, has := m.PeekLine(n, 0x30); !has {
				t.Fatalf("node %d LocalValid without data", n)
			}
		}
	}
}

func TestProactiveEvictionSwitch(t *testing.T) {
	cfg := smallConfig()
	cfg.TreeEntries, cfg.TreeWays = 32, 1
	cfg.ProactiveEviction = false
	var accs []trace.Access
	for a := 0; a < 300; a++ {
		accs = append(accs, trace.Access{Addr: uint64(a*16 + 2), Write: a%3 == 0})
	}
	tr := handTrace(map[int][]trace.Access{8: accs, 2: accs})
	m, _ := runTrace(t, cfg, tr, 2)
	if m.Counters.Get("tree.proactive_evictions") != 0 {
		t.Fatal("proactive evictions fired while disabled")
	}
}

// Property: random small traces on random pressured configurations always
// quiesce coherently and leave structurally sound trees. This is the
// simulation-level analogue of the model checker's exhaustive sweep.
func TestRandomizedStressProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("stress property is slow")
	}
	err := quick.Check(func(seed uint16, shape uint8, repl bool) bool {
		cfg := protocol.DefaultConfig()
		switch shape % 4 {
		case 0:
			cfg.TreeEntries, cfg.TreeWays = 16, 1
		case 1:
			cfg.TreeEntries, cfg.TreeWays = 64, 2
		case 2:
			cfg.TreeEntries, cfg.TreeWays = 256, 4
		case 3:
			cfg.TreeEntries, cfg.TreeWays = 64, 4
		}
		cfg.Replication = repl
		p := trace.Benchmarks()[int(seed)%8]
		tr := trace.Generate(p, 16, 80, uint64(seed)+1)
		m, err := protocol.Build(protocol.Spec{Config: cfg, Trace: tr, Think: 3})
		if err != nil {
			return false
		}
		New(m)
		if err := m.Run(20_000_000); err != nil {
			t.Logf("seed=%d shape=%d repl=%v: %v", seed, shape, repl, err)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: the protocol is deterministic — identical configuration and
// trace produce identical latency statistics.
func TestDeterminismProperty(t *testing.T) {
	p, _ := trace.ProfileByName("bar")
	run := func() (float64, float64, int64) {
		cfg := smallConfig()
		tr := trace.Generate(p, 16, 250, 9)
		m, err := protocol.Build(protocol.Spec{Config: cfg, Trace: tr, Think: p.Think})
		if err != nil {
			t.Fatal(err)
		}
		New(m)
		if err := m.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Lat.Read.Mean(), m.Lat.Write.Mean(), m.Kernel.Now()
	}
	r1, w1, c1 := run()
	r2, w2, c2 := run()
	if r1 != r2 || w1 != w2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%v,%v) vs (%v,%v,%v)", r1, w1, c1, r2, w2, c2)
	}
}

func TestTreeLineHelpers(t *testing.T) {
	var l TreeLine
	if l.LinkCount() != 0 {
		t.Fatal("empty line has links")
	}
	l.Links[2] = true
	if l.LinkCount() != 1 || l.OnlyLink() != 2 {
		t.Fatalf("LinkCount/OnlyLink wrong: %d/%v", l.LinkCount(), l.OnlyLink())
	}
	l.Links[0] = true
	if l.LinkCount() != 2 {
		t.Fatal("LinkCount wrong for two links")
	}
}
