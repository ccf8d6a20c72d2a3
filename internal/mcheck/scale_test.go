package mcheck

import (
	"runtime"
	"testing"
)

// The production-scale runs: exhaustive exploration of a 3×3 mesh — a
// configuration the paper's Murφ spec never checked and the pre-rewrite
// checker could not express (the 2×2 geometry was compiled in, and the
// string-keyed visited set allocated a copy of every state).

// TestExhaustive3x3 fully explores three writers racing two readers on a
// 3×3 mesh (131k canonical states) on every test run. The home sits at
// the mesh center so the axis-flip group applies when the program allows
// it; this particular program pins the group to the identity, making the
// counts comparable with the unreduced search.
func TestExhaustive3x3(t *testing.T) {
	c := NewMesh(3, 3, 4, []Op{
		{Node: 1}, {Node: 7},
		{Node: 3, Write: true}, {Node: 5, Write: true}, {Node: 0, Write: true},
	})
	c.TraceEdges = false
	c.Workers = runtime.NumCPU()
	c.MaxStates = 10_000_000
	res := c.Run()
	t.Logf("%v", res)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, d := range res.Deadlocks {
		t.Errorf("deadlock: %s", d)
	}
	if res.Truncated {
		t.Fatal("exploration truncated")
	}
	if res.Terminals == 0 {
		t.Error("no terminal state reached")
	}
	if res.States < 100_000 {
		t.Errorf("state space unexpectedly small: %d", res.States)
	}
	if res.PeakFrontier == 0 || res.Explored != res.States {
		t.Errorf("inconsistent bookkeeping: %+v", res)
	}
}

// TestScale3x3SixOps explores four readers and two writers on the 3×3
// mesh: 2.5M raw states, folded to 1.27M canonical classes by the
// 180°-rotation automorphism (flip-both fixing the center home). Skipped
// under -short and under the race detector, where the ~20s exploration
// balloons past CI budgets; the clean-build tier-1 run still covers it.
func TestScale3x3SixOps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-state exploration")
	}
	if raceEnabled {
		t.Skip("too large under the race detector")
	}
	c := NewMesh(3, 3, 4, []Op{
		{Node: 1}, {Node: 7}, {Node: 3}, {Node: 5},
		{Node: 0, Write: true}, {Node: 8, Write: true},
	})
	c.TraceEdges = false
	c.Workers = runtime.NumCPU()
	c.MaxStates = 20_000_000
	res := c.Run()
	t.Logf("%v", res)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, d := range res.Deadlocks {
		t.Errorf("deadlock: %s", d)
	}
	if res.Truncated {
		t.Fatal("exploration truncated")
	}
	if res.States < 1_000_000 {
		t.Errorf("expected >1M canonical states, got %d", res.States)
	}
}

// TestSymmetryReduction pins the automorphism group's effect: a program
// symmetric under both axis flips (readers at 1/7, writers at 3/5, home
// at the center) folds the state space by nearly the full group order 4.
func TestSymmetryReduction(t *testing.T) {
	ops := []Op{{Node: 1}, {Node: 7}, {Node: 3, Write: true}, {Node: 5, Write: true}}
	run := func(sym bool) Result {
		c := NewMesh(3, 3, 4, ops)
		c.Symmetry = sym
		c.TraceEdges = false
		res := c.Run()
		if len(res.Violations)+len(res.Deadlocks) > 0 {
			t.Fatalf("sym=%v: %v %v", sym, res.Violations, res.Deadlocks)
		}
		if res.Terminals == 0 || res.Truncated {
			t.Fatalf("sym=%v: bad run %v", sym, res)
		}
		return res
	}
	full := run(false)
	reduced := run(true)
	t.Logf("full=%v", full)
	t.Logf("reduced=%v", reduced)
	if reduced.States*3 >= full.States {
		t.Errorf("symmetry reduction too weak: %d canonical vs %d raw states", reduced.States, full.States)
	}
}

// TestParallelBFSDeterministic pins that the level-synchronous merge makes
// every count independent of the worker fan-out, and that the rewritten
// checker reproduces the string-keyed implementation's exact counts on
// the paper's program (3397 states / 6958 transitions, measured before
// the rewrite).
func TestParallelBFSDeterministic(t *testing.T) {
	home, ops := DefaultProgram()
	var base Result
	for i, workers := range []int{1, 2, 8} {
		c := New(home, ops)
		c.Workers = workers
		c.TraceEdges = false
		res := c.Run()
		if len(res.Violations)+len(res.Deadlocks) > 0 {
			t.Fatalf("workers=%d: %v %v", workers, res.Violations, res.Deadlocks)
		}
		if i == 0 {
			base = res
			if res.States != 3397 || res.Transitions != 6958 {
				t.Errorf("counts drifted from the pre-rewrite checker: %v", res)
			}
			continue
		}
		if res.States != base.States || res.Transitions != base.Transitions ||
			res.Explored != base.Explored || res.Terminals != base.Terminals ||
			res.PeakFrontier != base.PeakFrontier {
			t.Errorf("workers=%d diverged: %v vs %v", workers, res, base)
		}
	}
}

// TestMutationsDetectedWithSymmetryAndWorkers re-runs the seeded-bug table
// with symmetry reduction and parallel workers engaged at once — the
// reduction must never canonicalize a counterexample away.
func TestMutationsDetectedWithSymmetryAndWorkers(t *testing.T) {
	for _, tc := range mutationTable {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.home, tc.ops)
			c.Mut = tc.mut
			c.Workers = 4
			res := c.Run()
			if !reports(res, tc.want) {
				t.Fatalf("mutation %s not reported as %s: %v", tc.name, tc.want, res)
			}
		})
	}
}
