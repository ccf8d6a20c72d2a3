package protocol

import (
	"fmt"

	"innetcc/internal/fault"
	"innetcc/internal/metrics"
	"innetcc/internal/trace"
)

// EngineKind identifies a coherence engine implementation. It is the single
// source of truth for engine naming: everything that used to switch on
// "dir"/"tree" strings — job builders, experiment drivers, the CLI — now
// carries an EngineKind and parses user input once through ParseEngineKind.
type EngineKind uint8

// The engine kinds. KindNone builds a machine with no engine attached (the
// caller attaches one manually, as protocol-level tests do).
const (
	KindNone EngineKind = iota
	KindDirectory
	KindTree

	numEngineKinds
)

// String returns the kind's canonical short name, stable across releases
// because job cache identities embed it.
func (k EngineKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindDirectory:
		return "dir"
	case KindTree:
		return "tree"
	}
	return fmt.Sprintf("EngineKind(%d)", uint8(k))
}

// Describe returns the one-line human description of the engine.
func (k EngineKind) Describe() string {
	switch k {
	case KindDirectory:
		return "baseline MSI directory protocol"
	case KindTree:
		return "in-network virtual-tree protocol"
	}
	return "no engine"
}

// ParseEngineKind resolves an engine name. It accepts the canonical short
// names ("dir", "tree") and common long forms ("directory", "treecc").
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "dir", "directory":
		return KindDirectory, nil
	case "tree", "treecc":
		return KindTree, nil
	case "none", "":
		return KindNone, nil
	}
	return KindNone, fmt.Errorf("protocol: unknown engine kind %q (want dir or tree)", s)
}

// EngineKinds lists the runnable engine kinds in canonical order.
func EngineKinds() []EngineKind { return []EngineKind{KindDirectory, KindTree} }

// MarshalJSON encodes the kind as its canonical name, keeping serialized
// job specs (and their content hashes) readable and stable.
func (k EngineKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a canonical or long-form engine name.
func (k *EngineKind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("protocol: engine kind must be a JSON string, got %s", b)
	}
	kind, err := ParseEngineKind(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*k = kind
	return nil
}

// engineBuilders maps a kind to its constructor. Engine packages register
// themselves in init (via RegisterEngineBuilder), which inverts the import
// direction: protocol stays importable by every engine while Build can
// still construct any registered engine.
var engineBuilders [numEngineKinds]func(*Machine) Engine

// RegisterEngineBuilder installs the constructor for kind. Engine packages
// call it from init; the builder must construct the engine, build its mesh
// and attach both to the machine (engines' New functions already do).
func RegisterEngineBuilder(k EngineKind, build func(*Machine) Engine) {
	if k == KindNone || k >= numEngineKinds {
		panic("protocol: cannot register engine builder for " + k.String())
	}
	if engineBuilders[k] != nil {
		panic("protocol: duplicate engine builder for " + k.String())
	}
	engineBuilders[k] = build
}

// MaxDirectoryNodes is the largest machine the directory engine can run:
// its full-map directory entries hold sharers in a 64-bit bitset. The tree
// engine has no such limit.
const MaxDirectoryNodes = 64

// Spec is the declarative machine construction request: everything Build
// needs to produce a runnable simulation in one call.
type Spec struct {
	// Config is the machine configuration (Config.Seed drives all
	// randomness in the run).
	Config Config

	// Trace is the per-node access stream; it must have exactly
	// Config.Nodes() streams.
	Trace *trace.Trace

	// Think is the mean CPU idle time between accesses, from the
	// benchmark profile. Values below 1 are clamped to 1.
	Think int64

	// Engine selects the coherence engine Build attaches. KindNone
	// builds a bare machine; the caller attaches an engine before Run.
	// The selected engine's package must be imported so its builder is
	// registered (internal/exec imports both).
	Engine EngineKind

	// Metrics, when non-nil, attaches the cycle-level observability
	// collector. Build wires it before engine construction, which the
	// mesh-side instrumentation requires. Purely observational.
	Metrics *metrics.Collector

	// AlwaysTick disables the kernel's active-set optimization: every
	// ticker ticks every cycle. Simulation output is byte-identical
	// either way (the dual-kernel equivalence test in internal/verify
	// asserts it); the switch exists for that differential test and for
	// debugging suspected park/wake bugs.
	AlwaysTick bool

	// Faults is the fault plan: its spec's recovery keys (timeout,
	// retries, backoff, probe) arm the machine's reissue layer and
	// invariant probe, and its rates, when non-zero, arm the mesh's
	// deterministic fault injector. A nil plan disables recovery; a plan
	// whose spec injects nothing leaves the network entirely untouched
	// (no checksum stamping, no per-grant sampling), so fault-free runs
	// are byte-identical to builds without the fault layer.
	Faults *fault.Plan

	// KeepOrder retains the verifier's full total order of committed
	// accesses (verify.Checker.Order), which the litmus harness replays
	// through the linearization witness. Costs memory proportional to the
	// access count; experiment runs leave it off.
	KeepOrder bool

	// Shards is ignored: the kernel ticks serially.
	//
	// Deprecated: kept so existing callers compile.
	Shards int
}

// Validate reports spec errors without building anything.
func (s Spec) Validate() error {
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if s.Trace == nil {
		return fmt.Errorf("protocol: spec has no trace")
	}
	if len(s.Trace.PerNode) != s.Config.Nodes() {
		return fmt.Errorf("protocol: trace has %d streams for %d nodes", len(s.Trace.PerNode), s.Config.Nodes())
	}
	if s.Engine >= numEngineKinds {
		return fmt.Errorf("protocol: unknown engine kind %d", s.Engine)
	}
	if s.Engine == KindDirectory && s.Config.Nodes() > MaxDirectoryNodes {
		return fmt.Errorf("protocol: directory engine supports at most %d nodes (full-map sharer bitset), got %d",
			MaxDirectoryNodes, s.Config.Nodes())
	}
	if s.Faults != nil {
		if err := s.Faults.Spec.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Build constructs a machine (and, unless spec.Engine is KindNone, its
// coherence engine and mesh) from the spec. The machine is ready to Run.
func Build(spec Spec) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m, err := newMachine(spec)
	if err != nil {
		return nil, err
	}
	if spec.Engine != KindNone {
		build := engineBuilders[spec.Engine]
		if build == nil {
			return nil, fmt.Errorf("protocol: engine %s not registered (import its package)", spec.Engine)
		}
		build(m)
	}
	return m, nil
}
