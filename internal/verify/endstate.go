package verify

import "fmt"

// EndState captures a machine's coherence state at quiescence — committed
// versions, main-memory contents and every valid cached copy — in a form
// two engines can be differentially compared in: the committed-version map
// is a pure function of the access trace, so a directory run and a tree run
// over the same trace must agree on it exactly, while memory contents and
// copy placement may legitimately differ (they depend on timing).
type EndState struct {
	// Name labels the run in failure messages ("dir/bar", "tree/bar").
	Name string

	// Committed is the final committed version per line (from the
	// checker's write serialization).
	Committed map[uint64]uint64

	// Memory is main memory's version per line (lines never written back
	// are absent and read as zero).
	Memory map[uint64]uint64

	// Copies lists the valid cached copies per line.
	Copies map[uint64][]Copy
}

// Copy is one valid cached line copy.
type Copy struct {
	Node     int
	Version  uint64
	Modified bool
}

// NewEndState returns an empty end state.
func NewEndState(name string) *EndState {
	return &EndState{
		Name:      name,
		Committed: make(map[uint64]uint64),
		Memory:    make(map[uint64]uint64),
		Copies:    make(map[uint64][]Copy),
	}
}

// SetCommitted records a line's final committed version (zero versions,
// i.e. never-written lines, are skipped).
func (s *EndState) SetCommitted(addr, v uint64) {
	if v != 0 {
		s.Committed[addr] = v
	}
}

// SetMemory records main memory's version for a line (zero skipped: it is
// the implicit initial state of all of memory).
func (s *EndState) SetMemory(addr, v uint64) {
	if v != 0 {
		s.Memory[addr] = v
	}
}

// AddCopy records a valid cached copy.
func (s *EndState) AddCopy(addr uint64, c Copy) {
	s.Copies[addr] = append(s.Copies[addr], c)
}

// SelfCheck validates the invariants every engine must satisfy at
// quiescence: the copy-state invariants of CheckCopies, plus write-survives
// — the committed version of every written line is resident in main memory
// or in some valid copy (nothing committed is lost). Violations come back
// sorted.
func (s *EndState) SelfCheck() []Violation { return s.check(true) }

// CheckCopies validates the copy-state invariants that hold at every cycle
// of a correct run, not only at quiescence: version-bound (no memory value
// or copy beyond the committed version), no-stale-copy (every valid copy
// holds the committed version), swmr and m-excludes-s. The runtime probe
// checks a mid-run EndState with it; write-survives is left out because a
// writeback may be in flight. Violations come back sorted.
func (s *EndState) CheckCopies() []Violation { return s.check(false) }

func (s *EndState) check(quiescent bool) []Violation {
	var out []Violation
	for addr, v := range s.Memory {
		if c := s.Committed[addr]; v > c {
			out = append(out, Violationf(VersionBound, "memory holds %#x version %d beyond committed %d", addr, v, c))
		}
	}
	for addr, copies := range s.Copies {
		out = checkLine(out, addr, s.Committed[addr], copies)
	}
	if quiescent {
		for addr, v := range s.Committed {
			resident := s.Memory[addr] == v
			for _, c := range s.Copies[addr] {
				resident = resident || c.Version == v
			}
			if !resident {
				out = append(out, Violationf(WriteSurvives, "committed version %d of %#x resident nowhere (memory %d)", v, addr, s.Memory[addr]))
			}
		}
	}
	sortViolations(out)
	return out
}

// checkLine appends the violations of one line's valid copies against the
// line's committed version: version-bound or no-stale-copy per copy, then
// swmr or m-excludes-s across them.
func checkLine(out []Violation, addr, committed uint64, copies []Copy) []Violation {
	modified := 0
	for _, c := range copies {
		switch {
		case c.Version > committed:
			out = append(out, Violationf(VersionBound, "node %d copy of %#x holds version %d beyond committed %d", c.Node, addr, c.Version, committed))
		case c.Version != committed:
			out = append(out, Violationf(NoStaleCopy, "node %d copy of %#x holds stale version %d, committed is %d", c.Node, addr, c.Version, committed))
		}
		if c.Modified {
			modified++
		}
	}
	switch {
	case modified > 1:
		out = append(out, Violationf(SWMR, "%d Modified copies of %#x", modified, addr))
	case modified == 1 && len(copies) > 1:
		out = append(out, Violationf(MExcludesS, "a Modified copy of %#x coexists with %d other copies", addr, len(copies)-1))
	}
	return out
}

// Equivalent differentially compares two runs over the same trace: both
// must pass SelfCheck, and their committed-version maps must be identical —
// same set of written lines, same final version per line. It returns one
// message per discrepancy (empty means equivalent).
func Equivalent(a, b *EndState) []string {
	var out []string
	for _, s := range []*EndState{a, b} {
		for _, v := range s.SelfCheck() {
			out = append(out, s.Name+": "+v.String())
		}
	}
	for addr, av := range a.Committed {
		if bv, ok := b.Committed[addr]; !ok {
			out = append(out, fmt.Sprintf("%s committed %#x (version %d); %s never wrote it", a.Name, addr, av, b.Name))
		} else if av != bv {
			out = append(out, fmt.Sprintf("line %#x committed version %d in %s but %d in %s", addr, av, a.Name, bv, b.Name))
		}
	}
	for addr, bv := range b.Committed {
		if _, ok := a.Committed[addr]; !ok {
			out = append(out, fmt.Sprintf("%s committed %#x (version %d); %s never wrote it", b.Name, addr, bv, a.Name))
		}
	}
	return out
}
