package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzRead fuzzes the trace-file parser. Two properties are enforced on
// every input:
//
//  1. Read never panics and never allocates proportionally to unvalidated
//     header fields (the MaxFileNodes bound; the committed corpus includes
//     a "trace x 99999999999999" allocation-bomb header).
//  2. Round-trip stability: any input Read accepts must survive
//     Write→Read with an identical structure (same node count, same
//     per-node access streams; the name may differ only by sanitization).
func FuzzRead(f *testing.F) {
	seeds := []string{
		// Valid minimal trace.
		"trace t 2\n0 R 10\n1 W ff\n",
		// Comments, blank lines, lowercase ops.
		"# header comment\n\ntrace bench 4\n0 r 0\n3 w deadbeef\n# tail\n",
		// Allocation bomb: huge declared node count, no records.
		"trace x 99999999999999\n",
		"trace x 1000000000\n0 R 1\n",
		// Corrupt headers.
		"trace\n",
		"race t 2\n0 R 10\n",
		"trace t -3\n",
		"trace t 0\n",
		// Record defects: out-of-range node, bad op, bad address, short line.
		"trace t 2\n7 R 10\n",
		"trace t 2\n0 X 10\n",
		"trace t 2\n0 R zz\n",
		"trace t 2\n0 R\n",
		// Address 2^63, whose top bit is an Access's write flag.
		"trace t 1\n0 R 8000000000000000\n",
		// Empty and comment-only inputs.
		"",
		"# nothing\n\n",
		// Name requiring sanitization survives a round trip.
		"trace a 1\n0 W 8\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if tr == nil {
			t.Fatal("Read returned nil trace without error")
		}
		if len(tr.PerNode) == 0 || len(tr.PerNode) > MaxFileNodes {
			t.Fatalf("accepted trace with %d nodes", len(tr.PerNode))
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("Write of accepted trace failed: %v", err)
		}
		rt, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round-trip Read failed: %v\ninput: %q\nwritten: %q", err, data, buf.Bytes())
		}
		if got, want := len(rt.PerNode), len(tr.PerNode); got != want {
			t.Fatalf("round-trip node count %d, want %d", got, want)
		}
		if got, want := rt.Name, sanitizeName(tr.Name); got != want &&
			// Write sanitizes spaces; a name containing other whitespace
			// already cannot appear: Fields-split parsing forbids it.
			!strings.EqualFold(got, want) {
			t.Fatalf("round-trip name %q, want %q", got, want)
		}
		for n := range tr.PerNode {
			a, b := tr.PerNode[n], rt.PerNode[n]
			if len(a) != len(b) {
				t.Fatalf("node %d: round-trip stream length %d, want %d", n, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("node %d access %d: round-trip %+v, want %+v", n, i, b[i], a[i])
				}
			}
		}
	})
}

// FuzzGenerateMatchesEager holds Generate to generateEager, which builds
// every line up front: the two must emit identical streams for every
// profile, node count (square or not, 1 to 300), length (0 to 400
// accesses per node) and seed. The seed corpus covers every profile at
// 1, 16, 32, 64 and 256 nodes, so plain go test runs that sweep.
func FuzzGenerateMatchesEager(f *testing.F) {
	profiles := Benchmarks()
	for i := range profiles {
		for _, nodes := range []int{1, 16, 32, 64, 256} {
			f.Add(uint8(i), uint16(nodes), uint16(40+i*20), uint64(i*nodes+7))
		}
	}
	f.Add(uint8(3), uint16(300), uint16(400), uint64(42))
	f.Add(uint8(5), uint16(7), uint16(0), uint64(0))
	f.Fuzz(func(t *testing.T, profile uint8, nodes, accesses uint16, seed uint64) {
		p := profiles[int(profile)%len(profiles)]
		matchEager(t, p, 1+int(nodes)%300, int(accesses)%401, seed)
	})
}

// On a 64x64 mesh some nodes are in no group the working window reaches,
// so Generate fills their streams with top-up draws, which replay only a
// line's home from its checkpoint. Up to 300 nodes, the fuzzer's range,
// no stream needs them.
func TestGenerateMatchesEagerOnTopUps(t *testing.T) {
	for _, name := range []string{"lu", "wsp"} {
		p, _ := ProfileByName(name)
		matchEager(t, p, 4096, 2, 1)
	}
}

// matchEager fails t unless Generate and generateEager emit the same
// streams for p on nodes nodes, accesses per node and seed.
func matchEager(t *testing.T, p Profile, nodes, accesses int, seed uint64) {
	t.Helper()
	got, want := Generate(p, nodes, accesses, seed), generateEager(p, nodes, accesses, seed)
	if len(got.PerNode) != len(want.PerNode) {
		t.Fatalf("%s/%d/%d seed %d: %d streams, want %d", p.Name, nodes, accesses, seed, len(got.PerNode), len(want.PerNode))
	}
	for node := range want.PerNode {
		if !slices.Equal(got.PerNode[node], want.PerNode[node]) {
			t.Fatalf("%s/%d/%d seed %d: node %d's stream differs from the eager generator's", p.Name, nodes, accesses, seed, node)
		}
	}
}
