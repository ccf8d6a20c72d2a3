package mcheck

import (
	"testing"

	"innetcc/internal/verify"
)

// Mutation tests: injecting each deliberate protocol bug must make the
// checker find a violation or deadlock — evidence that the exhaustive
// search has the power to catch the races the protections close (the same
// role the paper's Murφ model played during its protocol design). Each
// Mut bit pairs with the engine-side treecc Bug bit of the same name; the
// litmus suite (internal/litmus) asserts the full-simulator net catches
// the same seeded bugs, so both verification layers are proven against
// live faults, not just clean runs.

// mutationTable is shared with scale_test.go; each entry names the program
// that exposes the bug fastest and the invariant the checker must report
// for it (completes: a deadlock). The litmus table (internal/litmus
// bugCases) pins the full simulator's ID for the same mutation; DESIGN.md
// lists the rows where the two nets differ and why.
var mutationTable = []struct {
	name string
	mut  Mutation
	home int
	ops  []Op
	want verify.Invariant
}{
	{
		name: "drop-ack-hold",
		mut:  MutDropAckHold,
		home: 0,
		ops:  []Op{{Node: 1, Write: true}, {Node: 2, Write: true}},
		want: verify.SoleCopyAtCommit,
	},
	{
		name: "accept-stale-reply",
		mut:  MutAcceptStaleReply,
		home: 0,
		ops:  []Op{{Node: 0, Write: true}, {Node: 3, Write: true}},
		want: verify.SoleCopyAtCommit,
	},
	{
		name: "drop-td-ack",
		mut:  MutDropTdAck,
		home: 0,
		ops:  []Op{{Node: 1, Write: false}, {Node: 2, Write: true}},
		want: verify.Completes,
	},
	{
		name: "early-home-release",
		mut:  MutEarlyHomeRelease,
		home: 0,
		ops:  []Op{{Node: 1, Write: false}, {Node: 2, Write: true}, {Node: 3, Write: true}},
		want: verify.SoleCopyAtCommit,
	},
	{
		name: "skip-invalidate",
		mut:  MutSkipInvalidate,
		home: 0,
		ops:  []Op{{Node: 1, Write: false}, {Node: 2, Write: true}},
		want: verify.SoleCopyAtCommit,
	},
	{
		name: "lost-writeback",
		mut:  MutLostWriteback,
		home: 0,
		ops:  []Op{{Node: 1, Write: true}, {Node: 2, Write: false}},
		want: verify.SCOrder,
	},
	{
		name: "double-grant",
		mut:  MutDoubleGrant,
		home: 0,
		ops:  []Op{{Node: 1, Write: true}, {Node: 2, Write: true}},
		want: verify.SoleCopyAtCommit,
	},
}

func TestCheckerCatchesSeededMutations(t *testing.T) {
	for _, tc := range mutationTable {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.home, tc.ops)
			c.Mut = tc.mut
			res := c.Run()
			if res.Truncated {
				t.Fatalf("state space truncated at %d states", res.States)
			}
			if !reports(res, tc.want) {
				t.Fatalf("mutation %s not reported as %s: %v\n%v\n%v", tc.name, tc.want, res, res.Violations, res.Deadlocks)
			}
			t.Logf("detected (%d violations, %d deadlocks): %v", len(res.Violations), len(res.Deadlocks), res)
			if len(res.Violations) > 0 {
				t.Logf("first violation: %s", res.Violations[0])
			}
			if len(res.Deadlocks) > 0 {
				t.Logf("first deadlock: %s", res.Deadlocks[0])
			}
		})
	}
}

// reports says whether res carries a violation of inv, counting a deadlock
// as a completes violation.
func reports(res Result, inv verify.Invariant) bool {
	if inv == verify.Completes && len(res.Deadlocks) > 0 {
		return true
	}
	for _, v := range res.Violations {
		if v.Inv == inv {
			return true
		}
	}
	return false
}

// TestCleanModelRejectsNoMutation pins the other half of the mutation
// argument: the exact programs that expose each bug pass cleanly when the
// bug is absent, so detection is attributable to the mutation alone.
func TestCleanModelPassesMutationPrograms(t *testing.T) {
	for _, tc := range mutationTable {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.home, tc.ops)
			res := c.Run()
			if len(res.Violations)+len(res.Deadlocks) > 0 {
				t.Fatalf("clean run of %s program failed: %v\n%v\n%v", tc.name, res, res.Violations, res.Deadlocks)
			}
			if res.Terminals == 0 {
				t.Fatal("no terminal state")
			}
		})
	}
}

func TestThreeWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	c := New(1, []Op{{Node: 0, Write: true}, {Node: 2, Write: true}, {Node: 3, Write: true}})
	res := c.Run()
	t.Logf("%v", res)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, d := range res.Deadlocks {
		t.Errorf("deadlock: %s", d)
	}
	if res.Terminals == 0 {
		t.Error("no terminal state")
	}
}

func TestMixedFourOpsEveryHome(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	n := 4
	for home := 0; home < n; home++ {
		c := New(home, []Op{
			{Node: (home + 1) % n, Write: false},
			{Node: (home + 2) % n, Write: true},
			{Node: (home + 3) % n, Write: false},
		})
		res := c.Run()
		if len(res.Violations)+len(res.Deadlocks) > 0 {
			t.Fatalf("home=%d: %v\n%v\n%v", home, res, res.Violations, res.Deadlocks)
		}
	}
}
