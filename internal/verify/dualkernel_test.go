package verify_test

import (
	"reflect"
	"testing"

	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/stats"
	"innetcc/internal/trace"
	"innetcc/internal/verify"
)

// runKernelMode runs one engine over one profile, on the default
// configuration as changed by tweak (when non-nil), with the active-set
// kernel optimization on (alwaysTick=false) or off, returning the machine
// for result comparison.
func runKernelMode(t *testing.T, kind protocol.EngineKind, p trace.Profile, tweak func(*protocol.Config), alwaysTick bool) *protocol.Machine {
	t.Helper()
	cfg := protocol.DefaultConfig()
	cfg.Seed = 42
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := protocol.Build(protocol.Spec{
		Config:     cfg,
		Trace:      trace.Generate(p, cfg.Nodes(), 120, cfg.Seed),
		Think:      p.Think,
		Engine:     kind,
		AlwaysTick: alwaysTick,
	})
	if err != nil {
		t.Fatalf("%s/%s: Build: %v", kind, p.Name, err)
	}
	m.ReadSamples = &stats.Sampler{}
	m.WriteSamples = &stats.Sampler{}
	if err := m.Run(20_000_000); err != nil {
		t.Fatalf("%s/%s: run: %v", kind, p.Name, err)
	}
	return m
}

// TestActiveSetKernelByteIdentical is the dual-kernel equivalence proof:
// the same spec run under the exhaustive always-tick kernel and under the
// active-set (park/wake + idle fast-forward) kernel must agree exactly —
// same quiescence cycle, same per-access latency sequences, same counters,
// same coherence end state. Parking is only legal for a component whose
// tick would have been a no-op, so any divergence here is a park/wake bug.
//
// Besides the default 4x4 mesh, the configurations with the longest and
// shortest router parks run too: Figure 10's above-network tree
// (pipeline 2*BasePipeline + DirLatency, so a router parks on a slot wake
// for up to 13 cycles), Figure 11's one-cycle pipeline (1 to 3 cycles,
// the shortest parks), and the torus with multicast forks and the ring.
func TestActiveSetKernelByteIdentical(t *testing.T) {
	profiles := []string{"bar", "wsp", "fft"}
	configs := []struct {
		name     string // subtest suffix; empty for the default config
		tweak    func(*protocol.Config)
		treeOnly bool // the tweak changes nothing for the directory engine
	}{
		{name: ""},
		{name: "torus-multicast", tweak: func(c *protocol.Config) {
			c.Topology = network.TorusSpec(4, 4)
			c.Multicast = true
		}},
		{name: "ring16", tweak: func(c *protocol.Config) { c.Topology = network.RingSpec(16) }},
		{name: "above-network", tweak: func(c *protocol.Config) { c.AboveNetworkTree = true }, treeOnly: true},
		{name: "pipeline1", tweak: func(c *protocol.Config) { c.BasePipeline = 1 }},
	}
	for _, c := range configs {
		for _, kind := range protocol.EngineKinds() {
			if c.treeOnly && kind != protocol.KindTree {
				continue
			}
			for _, name := range profiles {
				c, kind, name := c, kind, name
				label := kind.String() + "/" + name
				if c.name != "" {
					label += "/" + c.name
				}
				t.Run(label, func(t *testing.T) {
					t.Parallel()
					p, err := trace.ProfileByName(name)
					if err != nil {
						t.Fatal(err)
					}
					active := runKernelMode(t, kind, p, c.tweak, false)
					exhaustive := runKernelMode(t, kind, p, c.tweak, true)
					compareKernelModes(t, label, active, exhaustive)
				})
			}
		}
	}
}

// compareKernelModes fails t unless the active-set and always-tick runs of
// one spec agree exactly.
func compareKernelModes(t *testing.T, label string, active, exhaustive *protocol.Machine) {
	t.Helper()
	if a, e := active.Kernel.Now(), exhaustive.Kernel.Now(); a != e {
		t.Errorf("quiescence cycle diverged: active-set %d, always-tick %d", a, e)
	}
	if !reflect.DeepEqual(active.Lat, exhaustive.Lat) {
		t.Errorf("latency accumulators diverged:\n active-set: %+v\n always-tick: %+v",
			active.Lat, exhaustive.Lat)
	}
	if !reflect.DeepEqual(active.ReadSamples, exhaustive.ReadSamples) {
		t.Error("read latency distributions diverged")
	}
	if !reflect.DeepEqual(active.WriteSamples, exhaustive.WriteSamples) {
		t.Error("write latency distributions diverged")
	}
	if a, e := active.LocalHits, exhaustive.LocalHits; a != e {
		t.Errorf("local hits diverged: %d vs %d", a, e)
	}
	if !reflect.DeepEqual(active.HomeCounts, exhaustive.HomeCounts) {
		t.Error("home-node access counts diverged")
	}
	for _, n := range exhaustive.Counters.Names() {
		if a, e := active.Counters.Get(n), exhaustive.Counters.Get(n); a != e {
			t.Errorf("counter %s diverged: %d vs %d", n, a, e)
		}
	}
	as, es := active.EndState(label), exhaustive.EndState(label)
	for _, d := range verify.Equivalent(as, es) {
		t.Error(d)
	}
	if !reflect.DeepEqual(as, es) {
		t.Error("end states not deep-equal (copy sets diverged)")
	}
}
