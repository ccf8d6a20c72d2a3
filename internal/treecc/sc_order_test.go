package treecc

import (
	"testing"

	"innetcc/internal/protocol"
	"innetcc/internal/trace"
	"innetcc/internal/verify"
)

// TestSequentialConsistencyTotalOrder retains the full runtime total order
// of a sharing-heavy run and validates it end to end, the paper's runtime
// SC condition: every read returns the version of the most recent preceding
// write in the total order, and writes to a line are consecutive.
func TestSequentialConsistencyTotalOrder(t *testing.T) {
	p, _ := trace.ProfileByName("wsp")
	tr := trace.Generate(p, 16, 400, 23)
	cfg := protocol.DefaultConfig()
	cfg.TreeEntries, cfg.TreeWays = 256, 2 // pressure: evictions + recoveries
	m, err := protocol.Build(protocol.Spec{Config: cfg, Trace: tr, Think: p.Think})
	if err != nil {
		t.Fatal(err)
	}
	m.Check = verify.New(true) // retain the order
	New(m)
	if err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if len(m.Check.Order()) == 0 {
		t.Fatal("no total order retained")
	}
	if errs := verify.CheckWitness(m.Check.Order()); len(errs) > 0 {
		t.Fatalf("%d total-order violations, first: %s", len(errs), errs[0])
	}
	t.Logf("total order validated over %d accesses", len(m.Check.Order()))
}
