package main

import (
	"testing"

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
}
