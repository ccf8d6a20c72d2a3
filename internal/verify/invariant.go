package verify

import (
	"fmt"
	"sort"
)

// Invariant names one coherence or sequential-consistency fact by a stable
// kebab-case ID. Every checker in the repository — the online Checker, the
// end-state self-check, the fault layer's runtime probe, the linearization
// witness, the model checker and the litmus oracles — reports its failures
// under one of these IDs, so both verification nets speak about the same
// property by name.
type Invariant string

const (
	// SWMR: at most one Modified copy of a line.
	SWMR Invariant = "swmr"
	// MExcludesS: a Modified copy excludes every other valid copy.
	MExcludesS Invariant = "m-excludes-s"
	// NoStaleCopy: every valid copy, and every local hit, holds the
	// committed-current version.
	NoStaleCopy Invariant = "no-stale-copy"
	// VersionBound: no copy, memory value or sampled read is newer than
	// the commit counter.
	VersionBound Invariant = "version-bound"
	// SoleCopyAtCommit: no other valid copy exists when a write commits.
	SoleCopyAtCommit Invariant = "sole-copy-at-commit"
	// SCOrder: each read returns the latest committed write, per-node
	// observations never go backwards, write versions are consecutive and
	// commit times never decrease.
	SCOrder Invariant = "sc-order"
	// WriteSurvives: at quiescence the newest committed version is in
	// memory or in a cache.
	WriteSurvives Invariant = "write-survives"
	// TreeWellFormed: the surviving virtual tree is structurally sound at
	// quiescence.
	TreeWellFormed Invariant = "tree-well-formed"
	// Completes: the run drains — no deadlock or hang, writes commit
	// exactly once and reads at least once.
	Completes Invariant = "completes"
)

// Violation is one failed check: the invariant it breaks and the specifics.
type Violation struct {
	Inv    Invariant
	Detail string
}

func (v Violation) String() string { return string(v.Inv) + ": " + v.Detail }

// Violationf builds a violation of inv. Checkers call it only once a check
// has failed, so passing checks never format anything.
func Violationf(inv Invariant, format string, args ...interface{}) Violation {
	return Violation{Inv: inv, Detail: fmt.Sprintf(format, args...)}
}

// sortViolations orders violations by invariant, then detail, so a failing
// run's report does not depend on map iteration order.
func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Inv != vs[j].Inv {
			return vs[i].Inv < vs[j].Inv
		}
		return vs[i].Detail < vs[j].Detail
	})
}

// Error is a run stopped by invariant violations: the online checker's
// record at the end of a run, or the runtime probe's finding at the cycle
// it fired. It is deterministic, never transient: re-running the same seed
// reproduces it.
type Error struct {
	Cycle      int64
	Seed       uint64
	Violations []Violation
}

func (e *Error) Error() string {
	first := "(none recorded)"
	if len(e.Violations) > 0 {
		first = e.Violations[0].String()
	}
	return fmt.Sprintf("verify: %d invariant violations at cycle %d (reproducer seed %#x), first: %s",
		len(e.Violations), e.Cycle, e.Seed, first)
}
