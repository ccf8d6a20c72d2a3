// Package litmus is the simulator-level half of the two-layer verification
// net (the model checker in internal/mcheck is the other half). It
// generates small randomized conflict programs — concurrent reads and
// writes to a handful of lines from many nodes, on deliberately tiny cache
// geometries so eviction and conflict paths fire — replays each through
// the full simulator, clean and under deterministic fault plans, and
// checks a battery of oracles, each failure reported under the ID of the
// verify.Invariant it breaks:
//
//   - the runtime verifier and, when a fault plan arms it, the invariant
//     probe (sole-copy-at-commit, sc-order, no-stale-copy, …), surfaced
//     through the run's *verify.Error;
//   - teardown liveness (completes): the run must quiesce (a dropped
//     acknowledgment or lost completion hangs the run, which the watchdog
//     converts into a typed failure);
//   - the end-state self-check (verify.EndState.SelfCheck): copy-state
//     invariants plus write-survives;
//   - the linearization witness (sc-order, verify.CheckWitness): the
//     retained commit-point order must be a legal sequential MSI history;
//   - completeness (completes): every issued access commits (writes
//     exactly once; reads at least once, since a late reply's serve may
//     legitimately be re-sampled).
//
// A failing spec is shrunk (Shrink) to a minimal reproducer and written as
// a replayable JSON spec file; Load + Run reproduces the failure
// deterministically, because every input — program, config, fault plan —
// is a pure function of the spec.
package litmus

import (
	"encoding/json"
	"fmt"
	"os"

	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

// Op is one access of a litmus program.
type Op struct {
	Node  int    `json:"node"`
	Addr  uint64 `json:"addr"`
	Write bool   `json:"write,omitempty"`
}

func (o Op) String() string {
	k := "R"
	if o.Write {
		k = "W"
	}
	return fmt.Sprintf("n%d:%s@%#x", o.Node, k, o.Addr)
}

// Program is a litmus test: an interconnect topology and an op list. Ops
// are dealt to per-node streams in list order; each node issues its ops in
// program order (one outstanding at a time), and cross-node interleaving is
// whatever the simulated timing produces.
type Program struct {
	// Topology is the canonical fabric string ("mesh:2x2", "torus:3x3",
	// "ring:6"); network.ParseTopoSpec parses it.
	Topology string `json:"topology"`
	Ops      []Op   `json:"ops"`
}

// Topo parses the program's topology spec.
func (p Program) Topo() (network.TopoSpec, error) {
	return network.ParseTopoSpec(p.Topology)
}

// Nodes returns the program's node count (0 when the topology is invalid).
func (p Program) Nodes() int {
	ts, err := p.Topo()
	if err != nil {
		return 0
	}
	return ts.Nodes()
}

// Validate reports structural errors a run cannot proceed past.
func (p Program) Validate() error {
	ts, err := p.Topo()
	if err != nil {
		return err
	}
	nodes := ts.Nodes()
	if nodes < 4 || nodes > 64 {
		return fmt.Errorf("litmus: topology %s has %d nodes, want [4,64]", p.Topology, nodes)
	}
	if len(p.Ops) == 0 || len(p.Ops) > 256 {
		return fmt.Errorf("litmus: %d ops out of range [1,256]", len(p.Ops))
	}
	for i, op := range p.Ops {
		if op.Node < 0 || op.Node >= nodes {
			return fmt.Errorf("litmus: op %d node %d outside %d-node fabric", i, op.Node, nodes)
		}
	}
	return nil
}

// Trace deals the ops to per-node access streams.
func (p Program) Trace() *trace.Trace {
	per := make([][]trace.Access, p.Nodes())
	for _, op := range p.Ops {
		per[op.Node] = append(per[op.Node], trace.Access{Addr: op.Addr, Write: op.Write})
	}
	return &trace.Trace{Name: "litmus", PerNode: per}
}

// RunSpec is the complete, self-contained description of one litmus run —
// the replayable reproducer format. Every field feeds a pure function, so
// two Runs of the same spec are identical down to the cycle.
type RunSpec struct {
	// Version is the spec-file format version (specVersion).
	Version int `json:"version"`
	// Engine selects the coherence engine under test.
	Engine protocol.EngineKind `json:"engine"`
	// Seed drives the simulation's randomness (think times) and, xored
	// through faultSeed, the fault plan's schedule.
	Seed uint64 `json:"seed"`
	// Bug, when non-empty, names a seeded protocol defect
	// (treecc.ParseBug) armed on the engine under test.
	Bug string `json:"bug,omitempty"`
	// Faults, when non-empty, is a fault.ParseSpec string arming
	// injection and the retry/probe recovery keys.
	Faults string `json:"faults,omitempty"`
	// Program is the litmus test itself.
	Program Program `json:"program"`
}

// specVersion is bumped whenever RunSpec's semantics change incompatibly
// (v2: Program carries a topology string instead of mesh_w/mesh_h).
const specVersion = 2

// String is a compact human-readable one-liner for logs.
func (rs RunSpec) String() string {
	s := fmt.Sprintf("%s seed=%d %s %v", rs.Engine, rs.Seed,
		rs.Program.Topology, rs.Program.Ops)
	if rs.Bug != "" {
		s += " bug=" + rs.Bug
	}
	if rs.Faults != "" {
		s += " faults=" + rs.Faults
	}
	return s
}

// Save writes the spec as an indented JSON reproducer file.
func (rs RunSpec) Save(path string) error {
	rs.Version = specVersion
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a reproducer file written by Save.
func Load(path string) (RunSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return RunSpec{}, err
	}
	var rs RunSpec
	if err := json.Unmarshal(b, &rs); err != nil {
		return RunSpec{}, fmt.Errorf("litmus: %s: %v", path, err)
	}
	if rs.Version != specVersion {
		return RunSpec{}, fmt.Errorf("litmus: %s: spec version %d, want %d", path, rs.Version, specVersion)
	}
	return rs, nil
}
