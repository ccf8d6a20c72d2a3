package verify_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"innetcc/internal/exec"
	"innetcc/internal/fault"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

// golden is the pinned outcome of one small 4x4 simulation: the machine
// state digest at a fixed mid-run pause (which covers the pending event
// timeline and scheduling sequence) and at quiescence, the quiescence
// cycle, and the read/write latency accumulators.
type golden struct {
	Mid, End       uint64
	Cycles         int64
	ReadN, WriteN  int64
	ReadSum, WrSum float64
}

func (g golden) String() string {
	return fmt.Sprintf("{Mid: %#x, End: %#x, Cycles: %d, ReadN: %d, WriteN: %d, ReadSum: %v, WrSum: %v}",
		g.Mid, g.End, g.Cycles, g.ReadN, g.WriteN, g.ReadSum, g.WrSum)
}

// goldenMidCycle is where every golden run pauses for its mid-run digest.
const goldenMidCycle = 1500

// goldenDrops is the drop-plan run's fault spec: link drops with retry
// recovery and the invariant probe armed.
const goldenDrops = "drop=2500,timeout=200000,retries=6,backoff=64,probe=2000"

// goldenRunsPin ties goldenRuns to exec.SpecVersion (see checkPin).
var goldenRunsPin = tablePin{version: 10, hash: 0x6c46cf51f0cd444}

// goldenRuns pins results across commits. Every other byte-identity test
// compares two configurations inside one binary, so a change that shifts
// every configuration alike passes them all; this table catches it. Keys
// are engine/profile, plus one drop-plan run and one multicast run on a
// 4x4 torus. A deliberate change to simulated behaviour re-records the
// table from the failure messages, which print each run in this syntax,
// bumps exec.SpecVersion and re-pins goldenRunsPin.
var goldenRuns = map[string]golden{
	"dir/bar":                  {Mid: 0x38b7f002f7ecb3cb, End: 0x268dcac891c33936, Cycles: 6387, ReadN: 341, WriteN: 208, ReadSum: 53399, WrSum: 17076},
	"dir/fft":                  {Mid: 0x4e6c648ba2b8d8e6, End: 0xec041526576cb2e9, Cycles: 5952, ReadN: 278, WriteN: 158, ReadSum: 51396, WrSum: 12394},
	"dir/lu":                   {Mid: 0xe9224f1671829068, End: 0xf7887bc3d5e9543c, Cycles: 4604, ReadN: 193, WriteN: 155, ReadSum: 39583, WrSum: 10787},
	"dir/ocn":                  {Mid: 0x836801aee480689a, End: 0x4fb127ba5fc1db5b, Cycles: 6408, ReadN: 298, WriteN: 229, ReadSum: 56369, WrSum: 18379},
	"dir/rad":                  {Mid: 0xc02cf796f485f8ff, End: 0xf9befda05065de3f, Cycles: 6170, ReadN: 299, WriteN: 129, ReadSum: 62245, WrSum: 9454},
	"dir/ray":                  {Mid: 0x7cde811cd63aefae, End: 0x205b4e6ebe5d19c2, Cycles: 6502, ReadN: 349, WriteN: 123, ReadSum: 67301, WrSum: 8823},
	"dir/wns":                  {Mid: 0xee76cfc5feb85a53, End: 0x994d5f4dc26c1ffa, Cycles: 5594, ReadN: 278, WriteN: 173, ReadSum: 49837, WrSum: 13561},
	"dir/wsp":                  {Mid: 0xd7195c50d29bbf1a, End: 0xa9cc3a05cc5beeb8, Cycles: 5813, ReadN: 276, WriteN: 234, ReadSum: 43793, WrSum: 20097},
	"tree/bar":                 {Mid: 0x6de74c36d695769d, End: 0xb29f675ac2cf1227, Cycles: 6489, ReadN: 345, WriteN: 209, ReadSum: 55494, WrSum: 15571},
	"tree/bar/torus-multicast": {Mid: 0x1adbb92616d1c5c2, End: 0xfdc5f86fbb210186, Cycles: 6028, ReadN: 345, WriteN: 207, ReadSum: 53070, WrSum: 14114},
	"tree/fft":                 {Mid: 0x7ae75fe9e8bc4a19, End: 0x2828eb2d49938850, Cycles: 6001, ReadN: 278, WriteN: 160, ReadSum: 52151, WrSum: 12112},
	"tree/lu":                  {Mid: 0xb04b0bdf2e954a5f, End: 0x949a16f937989e3d, Cycles: 4652, ReadN: 193, WriteN: 155, ReadSum: 40722, WrSum: 10645},
	"tree/ocn":                 {Mid: 0x734a93d588c87a2b, End: 0xc902499e4ee9c74d, Cycles: 6072, ReadN: 296, WriteN: 230, ReadSum: 56538, WrSum: 16886},
	"tree/rad":                 {Mid: 0xc0300abe99b735e0, End: 0x9a70648e8e89c82a, Cycles: 6237, ReadN: 297, WriteN: 131, ReadSum: 63735, WrSum: 9303},
	"tree/ray":                 {Mid: 0x5db67384bfa08216, End: 0xe4cc834a4ab453ac, Cycles: 6601, ReadN: 349, WriteN: 124, ReadSum: 68707, WrSum: 9071},
	"tree/wns":                 {Mid: 0xe8c2efb75eedebc1, End: 0x2ee179adb9b9427, Cycles: 5649, ReadN: 275, WriteN: 175, ReadSum: 50259, WrSum: 12502},
	"tree/wsp":                 {Mid: 0x184844789cc21ec1, End: 0xbcfbde73165973fa, Cycles: 5931, ReadN: 276, WriteN: 235, ReadSum: 45572, WrSum: 18199},
	"tree/wsp/drops":           {Mid: 0x21afe51ba4a0c462, End: 0x301a6addc7f9956d, Cycles: 6000, ReadN: 278, WriteN: 234, ReadSum: 45621, WrSum: 18127},
}

// runGolden runs one golden configuration: 4x4 fabric, seed 42, 60
// accesses per node, paused once at goldenMidCycle.
func runGolden(t *testing.T, kind protocol.EngineKind, p trace.Profile, topo network.TopoSpec, multicast bool, drops string) golden {
	t.Helper()
	const accesses, seed = 60, 42
	cfg := protocol.DefaultConfig()
	cfg.Seed = seed
	cfg.Topology = topo
	cfg.Multicast = multicast
	spec := protocol.Spec{Think: p.Think, Engine: kind}
	if drops != "" {
		fs, err := fault.ParseSpec(drops)
		if err != nil {
			t.Fatal(err)
		}
		spec.Faults = &fault.Plan{Spec: fs, Seed: seed}
	}
	spec.Config = cfg
	spec.Trace = trace.Generate(p, cfg.Nodes(), accesses, seed)
	m, err := protocol.Build(spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const limit = 20_000_000
	done, err := m.RunSegment(goldenMidCycle, limit)
	if done {
		t.Fatalf("run finished (err %v) before the mid-run pause at cycle %d", err, goldenMidCycle)
	}
	var g golden
	g.Mid = m.StateDigest()
	if _, err := m.RunSegment(limit, limit); err != nil {
		t.Fatalf("run: %v", err)
	}
	g.End = m.StateDigest()
	g.Cycles = m.Kernel.Now()
	g.ReadN, g.ReadSum = m.Lat.Read.N, m.Lat.Read.Sum
	g.WriteN, g.WrSum = m.Lat.Write.N, m.Lat.Write.Sum
	return g
}

// TestGoldenDigests replays every pinned configuration and compares it
// with goldenRuns.
func TestGoldenDigests(t *testing.T) {
	checkPin(t, "goldenRuns", goldenRuns, goldenRunsPin)
	type run struct {
		key       string
		kind      protocol.EngineKind
		profile   string
		topo      network.TopoSpec
		multicast bool
		drops     string
	}
	var runs []run
	for _, kind := range protocol.EngineKinds() {
		for _, p := range trace.Benchmarks() {
			runs = append(runs, run{key: kind.String() + "/" + p.Name, kind: kind, profile: p.Name,
				topo: network.MeshSpec(4, 4)})
		}
	}
	runs = append(runs,
		run{key: "tree/wsp/drops", kind: protocol.KindTree, profile: "wsp",
			topo: network.MeshSpec(4, 4), drops: goldenDrops},
		run{key: "tree/bar/torus-multicast", kind: protocol.KindTree, profile: "bar",
			topo: network.TorusSpec(4, 4), multicast: true})
	for _, r := range runs {
		r := r
		t.Run(r.key, func(t *testing.T) {
			t.Parallel()
			p, err := trace.ProfileByName(r.profile)
			if err != nil {
				t.Fatal(err)
			}
			got := runGolden(t, r.kind, p, r.topo, r.multicast, r.drops)
			if want, ok := goldenRuns[r.key]; !ok || got != want {
				t.Errorf("results diverged from the pinned run:\n got  %q: %v,\n want %q: %v", r.key, got, r.key, want)
			}
		})
	}
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
