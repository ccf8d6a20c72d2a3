package directory

import (
	"testing"

	"innetcc/internal/protocol"
	"innetcc/internal/trace"
	"innetcc/internal/verify"
)

// TestSequentialConsistencyTotalOrder mirrors the in-network protocol's
// end-to-end SC total-order validation for the baseline directory protocol.
func TestSequentialConsistencyTotalOrder(t *testing.T) {
	p, _ := trace.ProfileByName("wsp")
	tr := trace.Generate(p, 16, 400, 23)
	cfg := protocol.DefaultConfig()
	cfg.DirEntries, cfg.DirWays = 256, 2
	m, err := protocol.Build(protocol.Spec{Config: cfg, Trace: tr, Think: p.Think})
	if err != nil {
		t.Fatal(err)
	}
	m.Check = verify.New(true)
	New(m)
	if err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if errs := verify.CheckWitness(m.Check.Order()); len(errs) > 0 {
		t.Fatalf("%d total-order violations, first: %s", len(errs), errs[0])
	}
	t.Logf("total order validated over %d accesses", len(m.Check.Order()))
}
