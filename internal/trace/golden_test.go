package trace_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"innetcc/internal/exec"
	"innetcc/internal/trace"
)

// traceHash folds every access of t, stream by stream, into one FNV-1a
// 64-bit word.
func traceHash(t *trace.Trace) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			h ^= (v >> i) & 0xff
			h *= 1099511628211
		}
	}
	for n, s := range t.PerNode {
		mix(uint64(n))
		mix(uint64(len(s)))
		for _, a := range s {
			mix(a.Addr())
			if a.Write() {
				mix(1)
			} else {
				mix(0)
			}
		}
	}
	return h
}

// TestGenerateGolden pins Generate's output for every profile at 16, 32
// (non-square, as on an 8x4 mesh, where clusterNeighbor falls back to
// uniform draws) and 64 nodes. What they pin is the generator's RNG draw
// sequence and what each draw decides, not when a line's group is built:
// Generate builds groups on first touch by replaying a line's draws, and
// an eager build gives the same hashes. Any change to the draw sequence
// moves them, and with them every simulated figure, so re-recording them
// bumps exec.SpecVersion and re-pins goldenGeneratePin.
func TestGenerateGolden(t *testing.T) {
	checkPin(t, "goldenGenerate", goldenGenerate, goldenGeneratePin)
	for _, nodes := range []int{16, 32, 64} {
		for _, p := range trace.Benchmarks() {
			key := fmt.Sprintf("%s/%d", p.Name, nodes)
			if got := traceHash(trace.Generate(p, nodes, 150, 7)); got != goldenGenerate[key] {
				t.Errorf("Generate %s = %#x, want %#x", key, got, goldenGenerate[key])
			}
		}
	}
}

// goldenGeneratePin ties goldenGenerate to exec.SpecVersion: a trace
// change changes what every spec computes.
var goldenGeneratePin = tablePin{version: 10, hash: 0x70b478b1f6da96db}

var goldenGenerate = map[string]uint64{
	"fft/16": 0x2b1b742e2977f48,
	"lu/16":  0x41bd778aca594983,
	"bar/16": 0x30a568a93b557dbd,
	"rad/16": 0x357f63faad9b800e,
	"wns/16": 0xf3837f54a8a38c82,
	"wsp/16": 0xa76c17e878788df,
	"ocn/16": 0xc6f256d628b11961,
	"ray/16": 0x9c0d345c7bffc169,
	"fft/32": 0xc4a5d3fc07798858,
	"lu/32":  0x98378ba6b82e3cf7,
	"bar/32": 0x529964cd8dbd8776,
	"rad/32": 0x5b1f81fc63f88db,
	"wns/32": 0x4558b23612f13bfe,
	"wsp/32": 0x720e3c7c73f672cf,
	"ocn/32": 0x79f298f75f88c210,
	"ray/32": 0xa34fe5b67db7a4a3,
	"fft/64": 0xb6572ab44da716e,
	"lu/64":  0x5fc5f6d1de7297a3,
	"bar/64": 0x134b4b5b85a92d51,
	"rad/64": 0xe439416a3d483ce1,
	"wns/64": 0x4f5afce46ba3f62a,
	"wsp/64": 0x410adfb0a6411ec4,
	"ocn/64": 0x8f9c2e4b9eeb67f8,
	"ray/64": 0xb040f8ff4e132ceb,
}

// tablePin is a golden table's hash and the exec.SpecVersion it was
// recorded at.
type tablePin struct {
	version int
	hash    uint64
}

// checkPin fails t unless table, hashed as FNV-1a over its Go syntax (%#v
// prints map keys sorted), matches pin at the current exec.SpecVersion.
func checkPin(t *testing.T, name string, table any, pin tablePin) {
	t.Helper()
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", table)
	got := tablePin{exec.SpecVersion, h.Sum64()}
	switch {
	case got.hash != pin.hash && got.version == pin.version:
		t.Fatalf("%s changed (hash %#x, pinned %#x), but exec.SpecVersion is still %d: re-recorded goldens change what a spec computes, so bump it, then re-pin the table", name, got.hash, pin.hash, pin.version)
	case got != pin:
		t.Fatalf("%s is pinned at spec version %d; re-pin it as tablePin{version: %d, hash: %#x}", name, pin.version, got.version, got.hash)
	}
}
