package trace

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	p, _ := ProfileByName("bar")
	orig := Generate(p, 16, 120, 3)
	var b strings.Builder
	if err := orig.Write(&b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || len(got.PerNode) != len(orig.PerNode) {
		t.Fatalf("header mismatch: %q/%d", got.Name, len(got.PerNode))
	}
	for n := range orig.PerNode {
		if len(got.PerNode[n]) != len(orig.PerNode[n]) {
			t.Fatalf("node %d stream length %d, want %d", n, len(got.PerNode[n]), len(orig.PerNode[n]))
		}
		for i := range orig.PerNode[n] {
			if got.PerNode[n][i] != orig.PerNode[n][i] {
				t.Fatalf("node %d access %d differs", n, i)
			}
		}
	}
}

// An empty trace (header only, zero accesses) must survive the round trip
// as a deep-equal structure: same name, same node count, all streams empty.
func TestRoundTripEmptyTrace(t *testing.T) {
	orig := &Trace{Name: "empty", PerNode: make([][]Access, 4)}
	var b strings.Builder
	if err := orig.Write(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "trace empty 4\n" {
		t.Fatalf("serialized empty trace = %q", b.String())
	}
	got, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || len(got.PerNode) != 4 || got.TotalAccesses() != 0 {
		t.Fatalf("round-tripped empty trace wrong: %+v", got)
	}
	for n := range got.PerNode {
		if len(got.PerNode[n]) != 0 {
			t.Fatalf("node %d stream not empty", n)
		}
	}
}

// A file truncated mid-record (as a cut-off download or partial write
// produces) must fail with a line-numbered error, not parse silently.
func TestReadRejectsTruncatedFile(t *testing.T) {
	full := "trace demo 2\n0 R 10\n1 W ff\n0 R 2a\n"
	// Cut inside the final record: "0 R 2a\n" -> "0 R".
	truncated := full[:len(full)-4]
	_, err := Read(strings.NewReader(truncated))
	if err == nil {
		t.Fatal("truncated file accepted")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error %q does not name the offending line", err)
	}
	// Truncating at a record boundary is indistinguishable from a short
	// trace and must still parse (fewer accesses, no error).
	tr, err := Read(strings.NewReader(full[:len(full)-7]))
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalAccesses() != 2 {
		t.Fatalf("boundary-truncated trace has %d accesses, want 2", tr.TotalAccesses())
	}
}

// Deep round trip over a generated trace: write -> read -> reflect.DeepEqual
// (modulo nil-versus-empty stream representation for idle nodes).
func TestRoundTripDeepEqual(t *testing.T) {
	p, _ := ProfileByName("wsp")
	orig := Generate(p, 16, 80, 11)
	var b strings.Builder
	if err := orig.Write(&b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Normalize empty streams: the reader leaves untouched nodes nil.
	for n := range got.PerNode {
		if got.PerNode[n] == nil {
			got.PerNode[n] = []Access{}
		}
		if orig.PerNode[n] == nil {
			orig.PerNode[n] = []Access{}
		}
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip not deep-equal:\n orig: %+v\n got: %+v", orig, got)
	}
}

func TestReadAcceptsCommentsAndBlankLines(t *testing.T) {
	in := `
# a hand-written trace
trace demo 4

0 R 10
# interleaved comment
1 W ff
0 r 10
3 w Abc
`
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.PerNode[0]) != 2 || len(tr.PerNode[1]) != 1 || len(tr.PerNode[3]) != 1 {
		t.Fatalf("stream lengths wrong: %d/%d/%d", len(tr.PerNode[0]), len(tr.PerNode[1]), len(tr.PerNode[3]))
	}
	if tr.PerNode[3][0].Addr() != 0xabc || !tr.PerNode[3][0].Write() {
		t.Fatalf("parsed access wrong: %+v", tr.PerNode[3][0])
	}
}

// The largest 63-bit line address survives a write/read round trip with
// either flag; one above it is the file's bad-address error.
func TestReadAddressCap(t *testing.T) {
	tr, err := Read(strings.NewReader("trace x 1\n0 W 7fffffffffffffff\n0 R 7fffffffffffffff\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s := tr.PerNode[0]; s[0] != NewAccess(MaxAddr, true) || s[1] != NewAccess(MaxAddr, false) {
		t.Fatalf("parsed %#x/%#x, want MaxAddr W then R", uint64(s[0]), uint64(s[1]))
	}
	_, err = Read(strings.NewReader("trace x 1\n0 R 8000000000000000\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2: bad address") {
		t.Fatalf("address 2^63 gave error %v, want line 2's bad address", err)
	}
}

func TestReadRejectsMalformedInput(t *testing.T) {
	cases := []string{
		"",                                  // empty
		"0 R 10\n",                          // missing header
		"trace x zero\n",                    // bad node count
		"trace x 2\n5 R 10\n",               // node out of range
		"trace x 2\n0 X 10\n",               // bad op
		"trace x 2\n0 R zz\n",               // bad address
		"trace x 2\n0 R\n",                  // missing field
		"trace x -1\n",                      // negative nodes
		"trace x 1\n0 W 8000000000000000\n", // address would set the write bit
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %q", i, in)
		}
	}
}

// Property: any generated trace survives a write/read round trip bitwise.
func TestRoundTripProperty(t *testing.T) {
	benches := Benchmarks()
	err := quick.Check(func(seed uint16, pick uint8) bool {
		p := benches[int(pick)%len(benches)]
		orig := Generate(p, 16, 40, uint64(seed))
		var b strings.Builder
		if err := orig.Write(&b); err != nil {
			return false
		}
		got, err := Read(strings.NewReader(b.String()))
		if err != nil {
			return false
		}
		for n := range orig.PerNode {
			if len(got.PerNode[n]) != len(orig.PerNode[n]) {
				return false
			}
			for i := range orig.PerNode[n] {
				if got.PerNode[n][i] != orig.PerNode[n][i] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}
