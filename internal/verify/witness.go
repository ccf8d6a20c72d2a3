package verify

// The linearization witness. A run executed with KeepOrder retains the
// commit-point sequence of every access (the order writes serialized at
// the home / tree root, and the order read replies sampled their data).
// CheckWitness validates that sequence as a legal sequential MSI history —
// the certificate that the concurrent execution linearizes:
//
//  1. Writes to a line carry versions 1,2,3,… in order: every write is
//     serialized exactly once and none is lost or duplicated.
//  2. Every read returns the version of the latest write that precedes it
//     in the witness: no read observes the future or a dropped past.
//  3. Per node and line, observed versions never decrease: the witness
//     embeds each node's program order (one outstanding access per node).
//  4. Commit timestamps never decrease, globally: the witness order is
//     the temporal order, so conditions 1–3 speak about real time.
//
// The model checker proves these properties exhaustively on the reduced
// protocol; the witness checks the same properties on single executions
// of the full simulator, which is what makes litmus fuzzing an oracle
// rather than a crash test. Every failure is an sc-order violation.
func CheckWitness(order []AccessRecord) []Violation {
	type nodeAddr struct {
		node int
		addr uint64
	}
	var out []Violation
	bad := func(format string, args ...interface{}) {
		if len(out) < 32 {
			out = append(out, Violationf(SCOrder, format, args...))
		}
	}
	cur := map[uint64]uint64{}
	lastSeen := map[nodeAddr]uint64{}
	var lastAt int64
	for i, r := range order {
		if r.At < lastAt {
			bad("witness[%d]: commit at cycle %d after cycle %d", i, r.At, lastAt)
		}
		lastAt = r.At
		if r.Write {
			if r.Version != cur[r.Addr]+1 {
				bad("witness[%d]: node %d write of %#x carries version %d, expected %d",
					i, r.Node, r.Addr, r.Version, cur[r.Addr]+1)
			}
			cur[r.Addr] = r.Version
		} else if r.Version != cur[r.Addr] {
			bad("witness[%d]: node %d read of %#x returned version %d, latest write is %d",
				i, r.Node, r.Addr, r.Version, cur[r.Addr])
		}
		k := nodeAddr{r.Node, r.Addr}
		if last, ok := lastSeen[k]; ok && r.Version < last {
			bad("witness[%d]: node %d sees version %d of %#x after version %d",
				i, r.Node, r.Addr, r.Version, last)
		}
		lastSeen[k] = r.Version
	}
	return out
}
