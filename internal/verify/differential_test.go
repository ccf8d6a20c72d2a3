package verify_test

import (
	"testing"

	"innetcc/internal/protocol"
	"innetcc/internal/trace"
	"innetcc/internal/verify"

	// Engine builder registration for protocol.Build.
	_ "innetcc/internal/directory"
	_ "innetcc/internal/treecc"
)

// runEngine drives one coherence engine over a deterministic trace to
// quiescence and captures its end state. Both engines of a differential
// pair are handed the same config, profile and seed, so they execute the
// identical access stream.
func runEngine(t *testing.T, kind protocol.EngineKind, p trace.Profile, accesses int, seed uint64) *verify.EndState {
	t.Helper()
	cfg := protocol.DefaultConfig()
	cfg.Seed = seed
	m, err := protocol.Build(protocol.Spec{
		Config: cfg,
		Trace:  trace.Generate(p, cfg.Nodes(), accesses, seed),
		Think:  p.Think,
		Engine: kind,
	})
	if err != nil {
		t.Fatalf("%s/%s: Build: %v", kind, p.Name, err)
	}
	if err := m.Run(20_000_000); err != nil {
		t.Fatalf("%s/%s: run: %v", kind, p.Name, err)
	}
	if v := m.Check.Violations(); len(v) > 0 {
		t.Fatalf("%s/%s: runtime violations: %v", kind, p.Name, v)
	}
	return m.EndState(kind.String() + "/" + p.Name)
}

// TestEnginesReachEquivalentEndState differentially verifies the two
// coherence engines over every trace profile: run to quiescence on the
// identical access stream, both must pass the end-state self-checks and
// agree exactly on the committed-version map (the part of the end state
// that is a pure function of the trace).
func TestEnginesReachEquivalentEndState(t *testing.T) {
	const accesses, seed = 120, 42
	for _, p := range trace.Benchmarks() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			dir := runEngine(t, protocol.KindDirectory, p, accesses, seed)
			tree := runEngine(t, protocol.KindTree, p, accesses, seed)
			if dir.Committed == nil || len(dir.Committed) == 0 {
				t.Fatalf("dir/%s committed nothing; differential test is vacuous", p.Name)
			}
			for _, d := range verify.Equivalent(dir, tree) {
				t.Error(d)
			}
		})
	}
}

// TestEndStateSelfCheckCatches proves the harness detects each class of
// corruption it claims to, under the invariant ID it claims: lost committed
// versions, stale copies, duplicate writers, a writer beside a sharer, and
// versions beyond the committed bound.
func TestEndStateSelfCheckCatches(t *testing.T) {
	clean := func() *verify.EndState {
		s := verify.NewEndState("x")
		s.SetCommitted(8, 3)
		s.SetMemory(8, 2)
		s.AddCopy(8, verify.Copy{Node: 1, Version: 3, Modified: true})
		return s
	}
	if errs := clean().SelfCheck(); len(errs) != 0 {
		t.Fatalf("clean state flagged: %v", errs)
	}

	cases := []struct {
		name    string
		want    verify.Invariant
		corrupt func(*verify.EndState)
	}{
		{"memory beyond committed", verify.VersionBound, func(s *verify.EndState) { s.SetMemory(8, 9) }},
		{"copy beyond committed", verify.VersionBound, func(s *verify.EndState) { s.AddCopy(8, verify.Copy{Node: 2, Version: 7}) }},
		{"stale modified copy", verify.NoStaleCopy, func(s *verify.EndState) {
			s.Copies[8] = []verify.Copy{{Node: 1, Version: 2, Modified: true}}
			s.SetMemory(8, 3)
		}},
		{"stale shared copy", verify.NoStaleCopy, func(s *verify.EndState) {
			s.Copies[8] = []verify.Copy{{Node: 2, Version: 2}}
			s.SetMemory(8, 3)
		}},
		{"two modified copies", verify.SWMR, func(s *verify.EndState) {
			s.AddCopy(8, verify.Copy{Node: 2, Version: 3, Modified: true})
		}},
		{"modified beside shared", verify.MExcludesS, func(s *verify.EndState) {
			s.AddCopy(8, verify.Copy{Node: 2, Version: 3})
		}},
		{"committed version lost", verify.WriteSurvives, func(s *verify.EndState) {
			s.Copies[8] = nil // memory holds 2, committed 3 is nowhere
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := clean()
			tc.corrupt(s)
			errs := s.SelfCheck()
			for _, v := range errs {
				if v.Inv == tc.want {
					return
				}
			}
			t.Fatalf("corruption not flagged as %s: %v", tc.want, errs)
		})
	}
}

// TestEquivalentFlagsCommitDivergence proves the differential comparison
// detects engines that disagree on what the trace committed.
func TestEquivalentFlagsCommitDivergence(t *testing.T) {
	a := verify.NewEndState("a")
	a.SetCommitted(8, 3)
	a.SetMemory(8, 3)
	b := verify.NewEndState("b")
	b.SetCommitted(8, 2)
	b.SetMemory(8, 2)
	b.SetCommitted(16, 1)
	b.SetMemory(16, 1)
	errs := verify.Equivalent(a, b)
	if len(errs) != 2 {
		t.Fatalf("want 2 discrepancies (version mismatch + missing line), got %d: %v", len(errs), errs)
	}
}
