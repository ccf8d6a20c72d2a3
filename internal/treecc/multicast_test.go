package treecc

import (
	"testing"

	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

// TestMulticastForkKeepsTeardownAheadOfAck replays runs in which a masked
// teardown waited in its router's generation FIFO while that router
// collapsed and queued an acknowledgment for one of the teardown's links.
// With the fork's copies queued at the FIFO's tail, the acknowledgment
// crossed the link first, the neighbor dropped it as stale, took the
// teardown that followed and waited forever for an acknowledgment: the run
// hung with every packet delivered and requests queued at the home.
func TestMulticastForkKeepsTeardownAheadOfAck(t *testing.T) {
	cases := []struct {
		name     string
		topo     network.TopoSpec
		profile  string
		accesses int
		seed     uint64
	}{
		{"torus4x4/bar", network.TorusSpec(4, 4), "bar", 80, 0x78b5731cb6b810b4},
		{"mesh4x4/ray", network.MeshSpec(4, 4), "ray", 150, 0xd9c6e188bc9f902},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := trace.ProfileByName(c.profile)
			if err != nil {
				t.Fatal(err)
			}
			cfg := protocol.DefaultConfig()
			cfg.Topology = c.topo
			cfg.Multicast = true
			cfg.Seed = c.seed
			m, err := protocol.Build(protocol.Spec{Config: cfg, Think: p.Think, Engine: protocol.KindTree,
				Trace: trace.Generate(p, cfg.Nodes(), c.accesses, c.seed)})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(20_000_000); err != nil {
				t.Fatal(err)
			}
			checkTreeInvariants(t, m, m.Engine().(*Engine))
			if m.Counters.Get("tree.td_multicasts") == 0 {
				t.Fatal("no multicast teardown: the fork path was not exercised")
			}
		})
	}
}
