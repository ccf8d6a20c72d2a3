package litmus

import (
	"path/filepath"
	"reflect"
	"testing"

	"innetcc/internal/protocol"
	"innetcc/internal/verify"
)

// Line addresses used by the directed programs: addr n has home node n.
const (
	aA = 0 // home 0
	aB = 1 // home 1
	aC = 2 // home 2
)

// engines under test; litmus replays every program on both.
var engines = []protocol.EngineKind{protocol.KindDirectory, protocol.KindTree}

// TestCleanCampaignPasses is the no-false-positives half of the oracle
// story: randomly generated conflict programs on the unmodified protocols
// must pass every oracle, clean and with the invariant probe armed.
func TestCleanCampaignPasses(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		prog := Generate(seed)
		for _, eng := range engines {
			for _, faults := range []string{"", "probe=50"} {
				rs := RunSpec{Engine: eng, Seed: seed, Faults: faults, Program: prog}
				fails, err := Run(rs)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, eng, err)
				}
				if len(fails) > 0 {
					t.Errorf("seed %d %s faults=%q: clean run failed: %v\nprogram: %v",
						seed, eng, faults, fails[0], prog.Ops)
				}
			}
		}
	}
}

// TestCleanFaultCampaignPasses replays generated programs under a drop
// plan with retry recovery armed: the fault layer must mask every injected
// loss, and no oracle may misread recovery traffic as a violation.
func TestCleanFaultCampaignPasses(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 6
	}
	const faults = "drop=5000,timeout=4000,retries=8,backoff=32,probe=100"
	for seed := uint64(1); seed <= uint64(n); seed++ {
		prog := Generate(seed)
		for _, eng := range engines {
			rs := RunSpec{Engine: eng, Seed: seed, Faults: faults, Program: prog}
			fails, err := Run(rs)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, eng, err)
			}
			if len(fails) > 0 {
				t.Errorf("seed %d %s: fault run failed: %v\nprogram: %v", seed, eng, fails[0], prog.Ops)
			}
		}
	}
}

// bugCases is the litmus half of the seeded-mutation suite: the same seven
// defects internal/mcheck's mutation table proves the model checker
// catches, here proven caught by the full-simulator oracles. Each case
// carries directed conflict programs (prelude reads on other lines stagger
// issue times so the conflict lands in the vulnerable window) and the
// fault string its defect needs (stale replies need retry armed; several
// need only the invariant probe; drop-td-ack needs nothing at all), and
// the invariant whose ID must appear among the failures of the spec
// findFailing returns. internal/mcheck's mutationTable pins the model
// checker's ID for the same defect; DESIGN.md lists the rows where the two
// nets differ and why.
var bugCases = []struct {
	bug      string
	faults   string
	want     verify.Invariant
	programs []Program
}{
	{
		bug:    "drop-td-ack",
		faults: "",
		want:   verify.Completes,
		programs: []Program{
			{Topology: "mesh:2x2", Ops: []Op{
				{Node: 1, Addr: aA}, {Node: 2, Addr: aB}, {Node: 2, Addr: aA, Write: true}}},
		},
	},
	{
		bug:    "skip-invalidate",
		faults: "",
		want:   verify.SoleCopyAtCommit,
		programs: []Program{
			{Topology: "mesh:2x2", Ops: []Op{
				{Node: 1, Addr: aA}, {Node: 2, Addr: aB}, {Node: 2, Addr: aA, Write: true}}},
		},
	},
	{
		bug:    "lost-writeback",
		faults: "",
		want:   verify.SCOrder,
		programs: []Program{
			{Topology: "mesh:2x2", Ops: []Op{
				{Node: 1, Addr: aA, Write: true}, {Node: 2, Addr: aB}, {Node: 2, Addr: aA}}},
		},
	},
	{
		bug: "early-home-release",
		// The defect leaves outer sharers holding registered copies after
		// the home declared the tree gone; a hot line churned by every
		// node keeps teardowns overlapping grants until the invariant
		// probe observes a stale copy outliving a commit.
		faults: "probe=10",
		want:   verify.NoStaleCopy,
		programs: []Program{
			// All four nodes churning one line whose home is n2.
			{Topology: "mesh:2x2", Ops: []Op{
				{Node: 2, Addr: 6, Write: true}, {Node: 3, Addr: 6}, {Node: 1, Addr: 6},
				{Node: 0, Addr: 6, Write: true}, {Node: 3, Addr: 6, Write: true},
				{Node: 2, Addr: 6, Write: true}, {Node: 0, Addr: 6}, {Node: 2, Addr: 6, Write: true},
				{Node: 2, Addr: 6, Write: true}, {Node: 3, Addr: 6, Write: true},
				{Node: 1, Addr: 6}, {Node: 1, Addr: 6, Write: true}}},
			{Topology: "mesh:3x3", Ops: []Op{
				{Node: 8, Addr: aA},
				{Node: 1, Addr: aB}, {Node: 1, Addr: aC}, {Node: 1, Addr: aA, Write: true}}},
		},
	},
	{
		bug:    "double-grant",
		faults: "probe=10",
		want:   verify.SCOrder,
		programs: []Program{
			// A write slips into the home's pending window while a
			// memory read is being served.
			{Topology: "mesh:2x2", Ops: []Op{
				{Node: 1, Addr: aA}, {Node: 3, Addr: aA, Write: true},
				{Node: 2, Addr: aB}, {Node: 2, Addr: aA}}},
			// Two concurrent writes.
			{Topology: "mesh:2x2", Ops: []Op{
				{Node: 1, Addr: aA, Write: true}, {Node: 3, Addr: aA, Write: true},
				{Node: 2, Addr: aB}, {Node: 2, Addr: aA}}},
		},
	},
	{
		bug: "drop-ack-hold",
		// The held ack protects the ~6-cycle window between a reply
		// anchoring at the requester and its completion; to land a
		// teardown inside it, stalls scramble message timing while
		// spurious timeouts (120 < a stalled round trip) keep reissues
		// and their abandoned replies churning through hot-line teardown
		// storms. Seed-dependent, hence the scan.
		faults: "stall=300000,stalllen=24,timeout=120,retries=30,backoff=8,probe=10",
		want:   verify.Completes,
		programs: []Program{
			{Topology: "mesh:2x2", Ops: []Op{
				{Node: 1, Addr: aA, Write: true}, {Node: 2, Addr: aA, Write: true},
				{Node: 3, Addr: aA, Write: true}, {Node: 0, Addr: aA, Write: true},
				{Node: 1, Addr: aA, Write: true}, {Node: 2, Addr: aA, Write: true},
				{Node: 3, Addr: aA}, {Node: 1, Addr: aA}}},
			{Topology: "mesh:3x3", Ops: []Op{
				{Node: 8, Addr: aA}, {Node: 1, Addr: aA, Write: true}, {Node: 8, Addr: aA, Write: true},
				{Node: 4, Addr: aA}, {Node: 0, Addr: aA, Write: true}, {Node: 8, Addr: aA},
				{Node: 2, Addr: aA, Write: true}, {Node: 6, Addr: aA, Write: true}}},
		},
	},
	{
		bug: "accept-stale-reply",
		// Drops cannot produce stale replies (a dropped reply no longer
		// exists, and the drop NACKs an immediate reissue); a timeout
		// shorter than the memory round trip can — the access reissues
		// while the original reply is still in flight, and the defect
		// then accepts that abandoned reply, double-completing.
		faults: "timeout=60,retries=20,backoff=8,probe=25",
		want:   verify.Completes,
		programs: []Program{
			{Topology: "mesh:2x2", Ops: []Op{
				{Node: 1, Addr: aA}, {Node: 2, Addr: aA, Write: true},
				{Node: 3, Addr: aA}, {Node: 1, Addr: aA, Write: true},
				{Node: 2, Addr: aA}, {Node: 3, Addr: aA, Write: true}}},
		},
	},
}

// findFailing scans seeds (in fixed order, so the result is deterministic)
// until one of the case's programs trips an oracle under the seeded bug
// while passing with the bug disarmed — the second condition discards
// fault-plan artifacts (e.g. a plan harsh enough to exhaust retries on the
// correct protocol) so every returned spec blames the defect.
func findFailing(t *testing.T, bug, faults string, programs []Program, maxSeed uint64) (RunSpec, bool) {
	t.Helper()
	for seed := uint64(1); seed <= maxSeed; seed++ {
		for _, prog := range programs {
			rs := RunSpec{Engine: protocol.KindTree, Seed: seed, Bug: bug, Faults: faults, Program: prog}
			if !Fails(rs) {
				continue
			}
			clean := rs
			clean.Bug = ""
			if Fails(clean) {
				continue
			}
			return rs, true
		}
	}
	return RunSpec{}, false
}

// TestSeededBugsCaughtAndShrunk is the acceptance loop: every seeded
// engine defect must (1) trip a litmus oracle, (2) shrink to a reproducer
// of at most 8 ops, and (3) replay the identical failure deterministically
// from its saved spec file. It also pins that the same specs pass with the
// bug disarmed — the oracles react to the defect, not to the program.
func TestSeededBugsCaughtAndShrunk(t *testing.T) {
	const maxSeed = 64
	dir := t.TempDir()
	for _, tc := range bugCases {
		tc := tc
		t.Run(tc.bug, func(t *testing.T) {
			rs, found := findFailing(t, tc.bug, tc.faults, tc.programs, maxSeed)
			if !found {
				t.Fatalf("bug %s: no failing seed in 1..%d", tc.bug, maxSeed)
			}
			fails, err := Run(rs)
			if err != nil {
				t.Fatal(err)
			}
			if !reports(fails, tc.want) {
				t.Fatalf("bug %s: no %s failure among %v", tc.bug, tc.want, fails)
			}

			small := Shrink(rs)
			if n := len(small.Program.Ops); n > 8 {
				t.Fatalf("bug %s: shrunk reproducer has %d ops, want <= 8: %s", tc.bug, n, small)
			}
			if !Fails(small) {
				t.Fatalf("bug %s: shrunk spec no longer fails: %s", tc.bug, small)
			}

			// The reproducer must replay the identical failure from disk.
			path := filepath.Join(dir, tc.bug+".json")
			if err := small.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(small)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(loaded)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !reflect.DeepEqual(want, got) {
				t.Fatalf("bug %s: replay from spec file diverged:\nwant %v\ngot  %v", tc.bug, want, got)
			}
			t.Logf("bug %s: %d ops, oracle %s (%s)", tc.bug, len(small.Program.Ops), got[0].Oracle, small)
		})
	}
}

// reports says whether some failure names inv as its oracle.
func reports(fails []Failure, inv verify.Invariant) bool {
	for _, f := range fails {
		if f.Oracle == string(inv) {
			return true
		}
	}
	return false
}

// TestShrinkDeterministic pins that shrinking is a pure function of the
// failing spec: two shrinks of the same input yield the same reproducer.
func TestShrinkDeterministic(t *testing.T) {
	tc := bugCases[0] // drop-td-ack: cheap, no faults
	rs, found := findFailing(t, tc.bug, tc.faults, tc.programs, 8)
	if !found {
		t.Skip("no failing seed in quick scan")
	}
	a, b := Shrink(rs), Shrink(rs)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shrink not deterministic:\n%s\n%s", a, b)
	}
}
