// Integration tests for the fault subsystem: they drive the full protocol
// stack (both coherence engines over the NoC) under fault plans, so they
// live outside package fault and exercise exactly what the CLI's -faults
// flag runs.
package fault_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"innetcc/internal/fault"
	"innetcc/internal/metrics"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"

	// Engine builder registration for protocol.Build.
	_ "innetcc/internal/directory"
	_ "innetcc/internal/treecc"
)

// buildMachine constructs one simulation over profile p with the given
// fault plan and recovery config already applied to cfg.
func buildMachine(t *testing.T, kind protocol.EngineKind, cfg protocol.Config, p trace.Profile,
	accesses int, spec protocol.Spec) *protocol.Machine {
	t.Helper()
	spec.Config = cfg
	spec.Trace = trace.Generate(p, cfg.Nodes(), accesses, cfg.Seed)
	spec.Think = p.Think
	spec.Engine = kind
	m, err := protocol.Build(spec)
	if err != nil {
		t.Fatalf("%s/%s: Build: %v", kind, p.Name, err)
	}
	return m
}

// signature captures everything a run's outcome consists of: final cycle,
// local hits, the full latency book and every named counter. Two runs with
// equal signatures are byte-identical as far as any experiment table can
// observe.
func signature(m *protocol.Machine) string {
	names := m.Counters.Names()
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d localhits=%d lat=%+v", m.Kernel.Now(), m.LocalHits, m.Lat)
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, m.Counters.Get(n))
	}
	return b.String()
}

// TestEmptyPlanByteIdentical is the acceptance gate for the whole fault
// layer: a zero-rate plan with every recovery knob armed must produce
// byte-identical results to a build with no fault layer at all — on both
// engines and under both kernel modes (active-set and always-tick).
func TestEmptyPlanByteIdentical(t *testing.T) {
	const accesses, seed = 120, 42
	p := trace.Benchmarks()[0]
	for _, kind := range protocol.EngineKinds() {
		for _, alwaysTick := range []bool{false, true} {
			name := fmt.Sprintf("%s/alwaysTick=%v", kind, alwaysTick)
			t.Run(name, func(t *testing.T) {
				base := protocol.DefaultConfig()
				base.Seed = seed
				plain := buildMachine(t, kind, base, p, accesses,
					protocol.Spec{AlwaysTick: alwaysTick})
				if err := plain.Run(20_000_000); err != nil {
					t.Fatalf("plain run: %v", err)
				}

				armed := base
				armed.RetryTimeout = 1_000_000 // armed but far beyond any real latency
				armed.RetryBudget = 3
				armed.RetryBackoff = 64
				armed.WatchdogCycles = 500_000
				zeroRate := fault.DefaultSpec() // Injecting() == false
				faulty := buildMachine(t, kind, armed, p, accesses,
					protocol.Spec{AlwaysTick: alwaysTick, Faults: &fault.Plan{Spec: zeroRate, Seed: 7}})
				if err := faulty.Run(20_000_000); err != nil {
					t.Fatalf("armed run: %v", err)
				}

				if a, b := signature(plain), signature(faulty); a != b {
					t.Errorf("empty fault plan changed the run:\n plain: %s\n armed: %s", a, b)
				}
			})
		}
	}
}

// TestDropPlanCompletesCoherently is the fault smoke test: under a seeded
// drop plan in the default (retryable-only) scope, both engines must absorb
// real packet loss and still quiesce with a coherent end state.
func TestDropPlanCompletesCoherently(t *testing.T) {
	const accesses, seed = 150, 42
	spec, err := fault.ParseSpec("drop=3000,timeout=200000,retries=6,backoff=64,probe=2000")
	if err != nil {
		t.Fatal(err)
	}
	p := trace.Benchmarks()[0]
	for _, kind := range protocol.EngineKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := protocol.DefaultConfig()
			cfg.Seed = seed
			cfg.RetryTimeout = spec.Timeout
			cfg.RetryBudget = spec.Budget
			cfg.RetryBackoff = spec.Backoff
			cfg.ProbeInterval = spec.Probe
			m := buildMachine(t, kind, cfg, p, accesses,
				protocol.Spec{Faults: &fault.Plan{Spec: spec, Seed: seed}})
			if err := m.Run(40_000_000); err != nil {
				t.Fatalf("run under drop plan failed: %v", err)
			}
			if v := m.Check.Violations(); len(v) > 0 {
				t.Fatalf("coherence violations under drop plan: %v", v)
			}
			if errs := m.EndState(kind.String()).SelfCheck(); len(errs) > 0 {
				t.Fatalf("end state corrupt: %v", errs)
			}
			drops := m.Counters.Get("fault.drops")
			if drops == 0 {
				t.Fatal("drop plan dropped nothing; smoke test is vacuous")
			}
			if m.Counters.Get("retry.reissues") == 0 {
				t.Fatalf("%d drops but no reissues; recovery never engaged", drops)
			}
			if m.Counters.Get("fault.probes") == 0 {
				t.Fatal("invariant probe never ran")
			}
			t.Logf("%s: drops=%d reissues=%d stale=%d probes=%d cycles=%d", kind,
				drops, m.Counters.Get("retry.reissues"),
				m.Counters.Get("retry.stale_replies"), m.Counters.Get("fault.probes"),
				m.Kernel.Now())
		})
	}
}

// TestRetryBudgetZeroFailsTyped: with injection on and a zero retry budget,
// the run must fail fast with a typed error naming the reproducer seed.
func TestRetryBudgetZeroFailsTyped(t *testing.T) {
	cfg := protocol.DefaultConfig()
	cfg.Seed = 0xc0ffee
	cfg.RetryTimeout = 1000
	cfg.RetryBudget = 0
	cfg.RetryBackoff = 16
	spec := fault.DefaultSpec()
	spec.DropPPM = 1_000_000 // every retryable packet dies at its first link
	m := buildMachine(t, protocol.KindTree, cfg, trace.Benchmarks()[0], 60,
		protocol.Spec{Faults: &fault.Plan{Spec: spec, Seed: 5}})
	err := m.Run(10_000_000)
	var ex *fault.RetryExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("got %v, want *fault.RetryExhaustedError", err)
	}
	if ex.Seed != cfg.Seed {
		t.Fatalf("error seed %#x, want reproducer %#x", ex.Seed, cfg.Seed)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%#x", cfg.Seed)) {
		t.Fatalf("error %q does not name the reproducer seed", err)
	}
	if !fault.Transient(err) {
		t.Fatal("retry exhaustion must classify as transient")
	}
}

// TestWatchdogTripDumpsFlightRecorder: a chaos plan that freezes every
// inter-router link makes routers spin without progress; the watchdog must
// trip, return a typed hang error, and write the flight-recorder dump. When
// the dump cannot be written, the failure is reported on the error.
func TestWatchdogTripDumpsFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "hang-dump.txt")
	hang := watchdogHang(t, dump)
	if hang.DumpPath != dump || hang.DumpErr != "" {
		t.Fatalf("dump path %q (err %q), want %q", hang.DumpPath, hang.DumpErr, dump)
	}
	body, rerr := os.ReadFile(dump)
	if rerr != nil {
		t.Fatalf("hang dump not written: %v", rerr)
	}
	for _, want := range []string{"hang dump:", "stuck:", "router queue occupancy:", "flight recorder"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("dump missing %q section:\n%s", want, body)
		}
	}

	missing := filepath.Join(dir, "missing", "hang-dump.txt")
	hang = watchdogHang(t, missing)
	if hang.DumpPath != "" {
		t.Fatalf("dump path %q recorded for a failed write", hang.DumpPath)
	}
	if msg := hang.Error(); !strings.Contains(msg, "[dump failed: ") || !strings.Contains(msg, missing) {
		t.Fatalf("error %q does not name the failed dump write to %s", msg, missing)
	}
}

// watchdogHang runs the all-links-frozen plan with the flight recorder on
// and the hang dump aimed at dump, and returns the watchdog's typed error.
func watchdogHang(t *testing.T, dump string) *fault.HangError {
	t.Helper()
	cfg := protocol.DefaultConfig()
	cfg.Seed = 0xdead
	cfg.WatchdogCycles = 5000
	spec := fault.DefaultSpec()
	spec.StallPPM = 1_000_000 // every link frozen, forever
	spec.Scope = fault.ScopeAll
	col := metrics.New(metrics.Options{FlightSize: 256})
	m := buildMachine(t, protocol.KindTree, cfg, trace.Benchmarks()[0], 60,
		protocol.Spec{
			Faults:       &fault.Plan{Spec: spec, Seed: 5},
			Metrics:      col,
			HangDumpPath: dump,
		})
	err := m.Run(2_000_000)
	var hang *fault.HangError
	if !errors.As(err, &hang) {
		t.Fatalf("got %v, want *fault.HangError", err)
	}
	if !hang.Watchdog {
		t.Fatal("hang error not attributed to the watchdog")
	}
	if hang.Seed != cfg.Seed {
		t.Fatalf("hang seed %#x, want reproducer %#x", hang.Seed, cfg.Seed)
	}
	if m.Kernel.Now() >= 2_000_000 {
		t.Fatalf("watchdog let the run burn its whole bound (cycle %d)", m.Kernel.Now())
	}
	if !fault.Transient(err) {
		t.Fatal("hang must classify as transient")
	}
	return hang
}

// TestCycleBoundHangIsTyped: even without the watchdog, exhausting the
// cycle bound before quiescence must return the same typed hang error
// (Watchdog false) so orchestration can classify and retry it.
func TestCycleBoundHangIsTyped(t *testing.T) {
	cfg := protocol.DefaultConfig()
	cfg.Seed = 0xdead
	spec := fault.DefaultSpec()
	spec.DropPPM = 1_000_000 // drop all requests, no retry armed: wedge
	m := buildMachine(t, protocol.KindTree, cfg, trace.Benchmarks()[0], 60,
		protocol.Spec{Faults: &fault.Plan{Spec: spec, Seed: 5}})
	err := m.Run(100_000)
	var hang *fault.HangError
	if !errors.As(err, &hang) {
		t.Fatalf("got %v, want *fault.HangError", err)
	}
	if hang.Watchdog {
		t.Fatal("cycle-bound hang misattributed to the watchdog")
	}
	if !strings.Contains(err.Error(), "stuck after") {
		t.Fatalf("hang error %q lacks the stuck report", err)
	}
}

// TestProbeAloneIsClean: the invariant probe on a fault-free run must find
// nothing, run at its configured cadence, and not prevent quiescence.
func TestProbeAloneIsClean(t *testing.T) {
	cfg := protocol.DefaultConfig()
	cfg.Seed = 42
	cfg.ProbeInterval = 500
	m := buildMachine(t, protocol.KindDirectory, cfg, trace.Benchmarks()[1], 100, protocol.Spec{})
	if err := m.Run(20_000_000); err != nil {
		t.Fatalf("probed fault-free run failed: %v", err)
	}
	if m.Counters.Get("fault.probes") == 0 {
		t.Fatal("probe never ran")
	}
}

// TestTargetedTorusWrapLinkDrop pins the topology-aware fault namespace:
// a drop plan targeted at one directed torus wraparound link (router 0's
// West port, which wraps to the east edge) must actually lose packets
// there — proving wrap links carry traffic and are addressable fault
// sites — while both engines still recover to a coherent end state.
func TestTargetedTorusWrapLinkDrop(t *testing.T) {
	const accesses, seed = 150, 42
	topo := network.Torus2D{W: 4, H: 4}
	// The targeted site must be a genuine wraparound: leaving node 0
	// westward lands on the opposite edge of the row.
	wrapTo, ok := topo.Neighbor(0, network.West)
	if !ok || wrapTo != 3 {
		t.Fatalf("torus wrap link broken: Neighbor(0, West) = %d, %v", wrapTo, ok)
	}
	spec, err := fault.ParseSpec("drop=200000,link=0:3,timeout=200000,retries=6,backoff=64")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.LinkTargeted || spec.LinkRouter != 0 || spec.LinkPort != int(network.West) {
		t.Fatalf("link target parsed wrong: %+v", spec)
	}
	p := trace.Benchmarks()[0]
	for _, kind := range protocol.EngineKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := protocol.DefaultConfig()
			cfg.Topology = network.TorusSpec(4, 4)
			cfg.Seed = seed
			cfg.RetryTimeout = spec.Timeout
			cfg.RetryBudget = spec.Budget
			cfg.RetryBackoff = spec.Backoff
			m := buildMachine(t, kind, cfg, p, accesses,
				protocol.Spec{Faults: &fault.Plan{Spec: spec, Seed: seed}})
			if err := m.Run(40_000_000); err != nil {
				t.Fatalf("run under wrap-link drop failed: %v", err)
			}
			if v := m.Check.Violations(); len(v) > 0 {
				t.Fatalf("coherence violations: %v", v)
			}
			drops := m.Counters.Get("fault.drops")
			if drops == 0 {
				t.Fatal("targeted wrap link dropped nothing; either no traffic wraps or the target is ignored")
			}
			if m.Counters.Get("retry.reissues") == 0 {
				t.Fatalf("%d drops but no reissues", drops)
			}
			t.Logf("%s: wrap-link drops=%d reissues=%d cycles=%d", kind,
				drops, m.Counters.Get("retry.reissues"), m.Kernel.Now())
		})
	}
	// Control: the same target on the open 4x4 mesh names a port with no
	// link (node 0 has no West neighbor), so no grant ever samples it and
	// nothing can drop. The namespace really is the topology's.
	t.Run("mesh-control", func(t *testing.T) {
		cfg := protocol.DefaultConfig()
		cfg.Seed = seed
		cfg.RetryTimeout = spec.Timeout
		cfg.RetryBudget = spec.Budget
		cfg.RetryBackoff = spec.Backoff
		m := buildMachine(t, protocol.KindTree, cfg, p, accesses,
			protocol.Spec{Faults: &fault.Plan{Spec: spec, Seed: seed}})
		if err := m.Run(40_000_000); err != nil {
			t.Fatalf("mesh control run failed: %v", err)
		}
		if drops := m.Counters.Get("fault.drops"); drops != 0 {
			t.Fatalf("mesh dropped %d packets on a link it does not have", drops)
		}
	})
}
