package verify_test

import (
	"testing"

	"innetcc/internal/fault"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"
	"innetcc/internal/verify"

	_ "innetcc/internal/directory"
	_ "innetcc/internal/treecc"
)

// runEngineFaulty drives one engine over a deterministic trace under a
// drop-only fault plan with retry recovery armed, and returns the end state
// plus the number of packets the plan actually removed.
func runEngineFaulty(t *testing.T, kind protocol.EngineKind, p trace.Profile, accesses int,
	seed uint64, spec fault.Spec) (*verify.EndState, int64) {
	t.Helper()
	cfg := protocol.DefaultConfig()
	cfg.Seed = seed
	m, err := protocol.Build(protocol.Spec{
		Config: cfg,
		Trace:  trace.Generate(p, cfg.Nodes(), accesses, seed),
		Think:  p.Think,
		Engine: kind,
		Faults: &fault.Plan{Spec: spec, Seed: seed + uint64(kind)},
	})
	if err != nil {
		t.Fatalf("%s/%s: Build: %v", kind, p.Name, err)
	}
	if err := m.Run(40_000_000); err != nil {
		t.Fatalf("%s/%s: run under faults: %v", kind, p.Name, err)
	}
	if v := m.Check.Violations(); len(v) > 0 {
		t.Fatalf("%s/%s: runtime violations under faults: %v", kind, p.Name, v)
	}
	return m.EndState(kind.String() + "/" + p.Name), m.Counters.Get("fault.drops")
}

// TestEnginesConvergeUnderDrops is the fault differential: on every trace
// profile, both engines run under a seeded drop-only plan (retryable scope)
// with bounded retries, and must still commit the exact same version map an
// uninjected run commits — packet loss may cost latency, never coherence.
// Profiles run serially so the test can assert the plans injected real
// loss in aggregate (any single profile may sample zero drops).
func TestEnginesConvergeUnderDrops(t *testing.T) {
	const accesses, seed = 120, 42
	spec, err := fault.ParseSpec("drop=2500,timeout=200000,retries=6,backoff=64,probe=2000")
	if err != nil {
		t.Fatal(err)
	}
	var totalDrops int64
	for _, p := range trace.Benchmarks() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			dir, dirDrops := runEngineFaulty(t, protocol.KindDirectory, p, accesses, seed, spec)
			tree, treeDrops := runEngineFaulty(t, protocol.KindTree, p, accesses, seed, spec)
			totalDrops += dirDrops + treeDrops
			if len(dir.Committed) == 0 {
				t.Fatalf("dir/%s committed nothing; differential is vacuous", p.Name)
			}
			for _, d := range verify.Equivalent(dir, tree) {
				t.Error(d)
			}
			clean := runEngine(t, protocol.KindDirectory, p, accesses, seed)
			for _, d := range verify.Equivalent(clean, dir) {
				t.Errorf("faulty dir run diverged from clean run: %v", d)
			}
		})
	}
	if totalDrops == 0 {
		t.Fatal("no profile sampled a single drop; raise the rate, the test is vacuous")
	}
	t.Logf("aggregate injected drops across profiles: %d", totalDrops)
}
