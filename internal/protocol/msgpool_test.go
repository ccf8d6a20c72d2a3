package protocol_test

import (
	"testing"

	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

// TestMissCycleReusesOneMessage runs four cold misses, two reads and two
// writes, from one node of a 2x2 machine on each engine. Each miss is a
// request the home turns into a reply and the requester frees on
// completion, so the first miss allocates the one message all four use and
// each cycle leaves the free list at the length it found it. In race builds
// a freed message is poisoned instead of reused, so every miss allocates
// its own and the free list stays empty.
func TestMissCycleReusesOneMessage(t *testing.T) {
	accesses := []trace.Access{
		trace.NewAccess(4, false), trace.NewAccess(8, false),
		trace.NewAccess(12, true), trace.NewAccess(16, true),
	}
	wantFree, wantMade := 1, 1
	if raceEnabled {
		wantFree, wantMade = 0, len(accesses)
	}
	for _, kind := range protocol.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := protocol.DefaultConfig()
			cfg.Topology = network.MeshSpec(2, 2)
			tr := &trace.Trace{Name: "misses", PerNode: make([][]trace.Access, cfg.Nodes())}
			tr.PerNode[1] = accesses
			m, err := protocol.Build(protocol.Spec{Config: cfg, Trace: tr, Think: 1, Engine: kind})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			if m.LocalHits != 0 || m.Lat.Read.N+m.Lat.Write.N != int64(len(accesses)) {
				t.Fatalf("%d local hits, %d misses completed; want 0 and %d",
					m.LocalHits, m.Lat.Read.N+m.Lat.Write.N, len(accesses))
			}
			if free, made := m.MsgPool(); free != wantFree || made != wantMade {
				t.Fatalf("free list %d long, %d messages made; want %d and %d", free, made, wantFree, wantMade)
			}
		})
	}
}
