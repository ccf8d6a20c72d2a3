package mcheck

import (
	"fmt"

	"innetcc/internal/verify"
)

// Invariants checked in every reachable state, following the paper's Murφ
// rules ("write operations to the same memory address must be observed in
// the same order by all the processor nodes", plus MSI coherence):
//
//   - swmr: at most one Modified copy exists;
//   - m-excludes-s: a Modified copy excludes every other valid copy;
//   - no-stale-copy: with no Modified copy in the system, every Shared copy
//     holds the memory-current version;
//   - version-bound: no copy or memory value is newer than the commit
//     counter.
//
// All conditions are invariant under the symmetry group of symmetry.go
// (they never name a specific non-home node), so checking them on each
// concrete successor while deduplicating canonically is sound.
func (c *Checker) checkInvariants(s *state) {
	mCount, mNode := 0, -1
	for n := 0; n < c.nodes; n++ {
		if s.data[n] == dModified {
			mCount++
			mNode = n
		}
		if s.dver[n] > s.wrote {
			c.fail(verify.VersionBound, "node %d holds version %d beyond commit counter %d", n, s.dver[n], s.wrote)
		}
	}
	if mCount > 1 {
		c.fail(verify.SWMR, "%d Modified copies coexist", mCount)
	}
	if mCount == 1 {
		for n := 0; n < c.nodes; n++ {
			if n != mNode && s.data[n] != dInvalid {
				c.fail(verify.MExcludesS, "node %d holds a copy while node %d is Modified: %s", n, mNode, c.describe(s))
			}
		}
	} else {
		for n := 0; n < c.nodes; n++ {
			if s.data[n] == dShared && s.dver[n] != s.memV {
				c.fail(verify.NoStaleCopy, "node %d Shared copy v%d is stale (memory v%d): %s", n, s.dver[n], s.memV, c.describe(s))
			}
		}
	}
	if s.memV > s.wrote {
		c.fail(verify.VersionBound, "memory version %d beyond commit counter %d", s.memV, s.wrote)
	}
}

// checkSoleCopy runs at a write commit (sole-copy-at-commit): no other node
// may hold a valid copy at the serialization point.
func (c *Checker) checkSoleCopy(s *state, writer int) {
	for n := 0; n < c.nodes; n++ {
		if n != writer && s.data[n] != dInvalid {
			c.fail(verify.SoleCopyAtCommit, "write commit at n%d while n%d holds a copy: %s", writer, n, c.describe(s))
		}
	}
}

// checkLocalRead runs at a local cache hit: the copy must be current
// (no-stale-copy).
func (c *Checker) checkLocalRead(s *state, node int) {
	if s.data[node] == dShared && s.dver[node] != s.memV {
		// With an M copy elsewhere the M-excludes-S invariant already
		// fired; here memory is the reference.
		c.fail(verify.NoStaleCopy, "local read at n%d observed stale v%d (memory v%d)", node, s.dver[node], s.memV)
	}
}

// checkTerminal validates fully drained end states: the surviving virtual
// tree (if any) must be structurally sound with all data copies anchored
// (tree-well-formed), and the latest committed write must survive in
// memory or a cache (write-survives, the data-value oracle — a lost
// writeback leaves every structural invariant intact but silently rolls
// the line back).
func (c *Checker) checkTerminal(s *state) {
	roots := 0
	members := 0
	for n := 0; n < c.nodes; n++ {
		t := &s.lines[n]
		if !t.Valid {
			if s.data[n] != dInvalid && n != c.Home {
				c.fail(verify.TreeWellFormed, "terminal: n%d holds data with no tree line: %s", n, c.describe(s))
			}
			continue
		}
		members++
		if t.Touched {
			c.fail(verify.TreeWellFormed, "terminal: n%d line left touched", n)
		}
		if t.IsRoot {
			roots++
		} else if t.RootDir == dirNone || !t.Links[t.RootDir] {
			c.fail(verify.TreeWellFormed, "terminal: n%d RootDir not a live link: %s", n, c.describe(s))
		}
		for d := 0; d < 4; d++ {
			if !t.Links[d] {
				continue
			}
			nb := c.neighbor(n, d)
			if nb < 0 || !s.lines[nb].Valid {
				c.fail(verify.TreeWellFormed, "terminal: n%d link %d dangles", n, d)
			} else if !s.lines[nb].Links[c.arrival(d)] {
				// One-way tails are cleaned by unlink acks before
				// quiescence; none may survive.
				c.fail(verify.TreeWellFormed, "terminal: asymmetric edge %d->%d: %s", n, nb, c.describe(s))
			}
		}
		if t.LocalV != (s.data[n] != dInvalid) {
			c.fail(verify.TreeWellFormed, "terminal: n%d LocalV=%v but data state %d", n, t.LocalV, s.data[n])
		}
	}
	if members > 0 {
		if roots != 1 {
			c.fail(verify.TreeWellFormed, "terminal: %d roots among %d tree members: %s", roots, members, c.describe(s))
		}
		if !s.lines[c.Home].Valid {
			c.fail(verify.TreeWellFormed, "terminal: home not part of surviving tree: %s", c.describe(s))
		}
	}
	// Data-value oracle: the newest committed version must be resident in
	// memory or some cache once everything drains.
	maxv := s.memV
	for n := 0; n < c.nodes; n++ {
		if s.data[n] != dInvalid && s.dver[n] > maxv {
			maxv = s.dver[n]
		}
	}
	if maxv != s.wrote {
		c.fail(verify.WriteSurvives, "terminal: committed version %d lost (newest surviving v%d): %s", s.wrote, maxv, c.describe(s))
	}
	// Every read must have sampled some committed version (0 = initial
	// memory is also legal).
	for i, o := range s.ops {
		if !c.Ops[i].Write && o.Sampled > s.wrote {
			c.fail(verify.VersionBound, "terminal: read %d sampled impossible version %d", i, o.Sampled)
		}
	}
}

// String renders a result for logs.
func (r Result) String() string {
	return fmt.Sprintf("states=%d transitions=%d explored=%d peak_frontier=%d terminals=%d violations=%d deadlocks=%d truncated=%v",
		r.States, r.Transitions, r.Explored, r.PeakFrontier, r.Terminals, len(r.Violations), len(r.Deadlocks), r.Truncated)
}
