package main

import (
	"testing"

	"innetcc/internal/experiments"
	"innetcc/internal/network"
)

func TestFabricTitleNamesTheFabric(t *testing.T) {
	for ts, want := range map[network.TopoSpec]string{
		network.MeshSpec(8, 8):   "64 nodes (8x8 mesh)",
		network.MeshSpec(64, 64): "4096 nodes (64x64 mesh)",
		network.TorusSpec(4, 4):  "16 nodes (4x4 torus)",
		network.RingSpec(16):     "16 nodes (ring)",
	} {
		if got := fabricTitle(ts); got != want {
			t.Errorf("fabricTitle(%s) = %q, want %q", ts, got, want)
		}
	}

	// A figure's title keeps its own fabric name without a -topology
	// override and names the override's fabric with one.
	for _, c := range []struct{ topology, def, want string }{
		{"", "16 nodes (Table 2 config)", "16 nodes (Table 2 config)"},
		{"torus:4x4", "16 nodes (Table 2 config)", "16 nodes (4x4 torus)"},
		{"ring:16", "64 nodes (8x8 mesh)", "16 nodes (ring)"},
	} {
		got, err := fabricLabel(experiments.Options{Topology: c.topology}, c.def)
		if err != nil || got != c.want {
			t.Errorf("fabricLabel(%q, %q) = %q, %v; want %q", c.topology, c.def, got, err, c.want)
		}
	}
	if _, err := fabricLabel(experiments.Options{Topology: "hexagon:3"}, "x"); err == nil {
		t.Error("fabricLabel accepted an unparseable topology")
	}
}
