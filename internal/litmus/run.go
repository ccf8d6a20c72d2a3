package litmus

import (
	"errors"
	"fmt"

	_ "innetcc/internal/directory" // register the directory engine
	"innetcc/internal/fault"
	"innetcc/internal/protocol"
	"innetcc/internal/treecc"
	"innetcc/internal/verify"
)

// maxCycles bounds one litmus run; programs are tiny (a clean run quiesces
// in a few thousand cycles), so a run that needs more than this has wedged
// even if the watchdog missed it — retry churn keeps packets moving, which
// defeats progress-based watchdogs, and the bound is what converts such a
// spin into a liveness failure. Kept tight so shrinking a hang-based
// reproducer (every shrink candidate re-runs to the bound) stays fast.
const maxCycles = 300_000

// Failure is one oracle trip. Oracle is the ID of the broken invariant
// (verify.Invariant's names: "sc-order", "completes", …), or "crash" for a
// panicking run, and Detail the human-readable specifics.
type Failure struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

func (f Failure) String() string { return f.Oracle + ": " + f.Detail }

// config builds the litmus machine configuration: the paper's nominal
// latencies on the program's mesh, with deliberately tiny tree and L2
// geometries so conflict evictions, victim-cache churn and teardown storms
// happen within a handful of accesses, and the watchdog armed so a
// liveness bug becomes a typed failure instead of a spun-out run.
func (rs RunSpec) config() protocol.Config {
	cfg := protocol.DefaultConfig()
	ts, _ := rs.Program.Topo() // Run validates the program first
	cfg.Topology = ts
	cfg.TreeEntries, cfg.TreeWays = 4, 2
	cfg.DirEntries, cfg.DirWays = 4, 2
	cfg.L2Entries, cfg.L2Ways = 8, 2
	cfg.MemLatency = 50
	cfg.WatchdogCycles = 100_000
	cfg.Seed = rs.Seed
	return cfg
}

// faultSeed derives the fault plan's schedule seed from the run seed, the
// same splitmix mixing the experiment layer uses, so plan and simulation
// randomness decorrelate without a second spec field.
func faultSeed(seed uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Run executes one litmus spec and returns the oracle failures (empty
// means the run passed every check). The error return is reserved for
// invalid specs — an unparseable fault string, a malformed program, an
// unknown bug name — never for protocol misbehavior, which is always
// reported as failures so shrinking can minimize it.
func Run(rs RunSpec) ([]Failure, error) {
	if err := rs.Program.Validate(); err != nil {
		return nil, err
	}
	cfg := rs.config()
	var plan *fault.Plan
	if rs.Faults != "" {
		fspec, err := fault.ParseSpec(rs.Faults)
		if err != nil {
			return nil, err
		}
		p := fspec.Plan(faultSeed(rs.Seed))
		plan = &p
	}
	bugs, err := treecc.ParseBug(rs.Bug)
	if err != nil {
		return nil, err
	}
	if bugs != 0 && rs.Engine != protocol.KindTree {
		return nil, fmt.Errorf("litmus: bug %q requires the tree engine, spec has %s", rs.Bug, rs.Engine)
	}
	m, err := protocol.Build(protocol.Spec{
		Config:    cfg,
		Trace:     rs.Program.Trace(),
		Think:     4,
		Engine:    rs.Engine,
		Faults:    plan,
		KeepOrder: true,
	})
	if err != nil {
		return nil, err
	}
	if bugs != 0 {
		m.Engine().(*treecc.Engine).Bugs = bugs
	}

	runErr, panicked := runGuarded(m)
	if panicked != "" {
		return []Failure{{Oracle: "crash", Detail: panicked}}, nil
	}
	var vs []verify.Violation
	var verr *verify.Error
	switch {
	case errors.As(runErr, &verr):
		vs = append(vs, verr.Violations...)
	case runErr != nil:
		// A hang or an exhausted retry budget: the run did not drain.
		vs = append(vs, verify.Violation{Inv: verify.Completes, Detail: runErr.Error()})
	}
	// The witness validates the commit-point prefix even of a hung run;
	// the end-state and completeness oracles only make sense at clean
	// quiescence (a hung run trivially has in-flight versions and
	// unfinished accesses, which the completes failure already reports).
	vs = append(vs, verify.CheckWitness(m.Check.Order())...)
	if runErr == nil {
		vs = append(vs, m.EndState(rs.Engine.String()+"/litmus").SelfCheck()...)
		vs = append(vs, checkCompleteness(rs, m)...)
	}
	var fails []Failure
	for _, v := range vs {
		if len(fails) < 32 {
			fails = append(fails, Failure{Oracle: string(v.Inv), Detail: v.Detail})
		}
	}
	return fails, nil
}

// runGuarded runs the machine, converting a panic — a crashed protocol is
// a finding, not a harness failure — into a returned description.
func runGuarded(m *protocol.Machine) (err error, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return m.Run(maxCycles), ""
}

// checkCompleteness compares the witness's per-node committed-access
// counts against the issued program. Writes serialize exactly once under
// any legal execution, retried or not — a write reply from an abandoned
// epoch is dropped before it can commit, so a count shift means a lost or
// duplicated completion. Reads must commit at least once; exactly-once
// cannot be demanded because the paper's own deadlock recovery (and the
// fault layer's retry) legitimately re-serves a read whose reply was
// aborted, leaving a second harmless sample at the data source. Every
// shortfall breaks the completes invariant.
func checkCompleteness(rs RunSpec, m *protocol.Machine) []verify.Violation {
	wantReads := map[int]int{}
	wantWrites := map[int]int{}
	for _, op := range rs.Program.Ops {
		if op.Write {
			wantWrites[op.Node]++
		} else {
			wantReads[op.Node]++
		}
	}
	gotReads := map[int]int{}
	gotWrites := map[int]int{}
	for _, r := range m.Check.Order() {
		if r.Write {
			gotWrites[r.Node]++
		} else {
			gotReads[r.Node]++
		}
	}
	var out []verify.Violation
	nodes := rs.Program.Nodes()
	for n := 0; n < nodes; n++ {
		if gotWrites[n] != wantWrites[n] {
			out = append(out, verify.Violationf(verify.Completes, "node %d committed %d writes, program issued %d", n, gotWrites[n], wantWrites[n]))
		}
		if gotReads[n] < wantReads[n] {
			out = append(out, verify.Violationf(verify.Completes, "node %d committed %d reads, program issued %d", n, gotReads[n], wantReads[n]))
		}
	}
	return out
}
