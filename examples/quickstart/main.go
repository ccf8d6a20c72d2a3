// Quickstart: run one synthetic benchmark under both coherence protocols —
// the baseline MSI directory protocol and the paper's in-network
// virtual-tree protocol — on the nominal 4x4-mesh configuration (Table 2),
// and compare average memory access latencies.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"innetcc/internal/protocol"
	"innetcc/internal/stats"
	"innetcc/internal/trace"

	// Blank imports register the engine builders protocol.Build
	// constructs from (database/sql driver style).
	_ "innetcc/internal/directory"
	_ "innetcc/internal/treecc"
)

func main() {
	// 1. Pick a benchmark profile (water-spatial: high sharing, high
	//    home-node skew) and generate its multi-threaded access trace.
	profile, err := trace.ProfileByName("wsp")
	if err != nil {
		log.Fatal(err)
	}
	tr := trace.Generate(profile, 16, 500, 1)
	fmt.Printf("benchmark %s: %d accesses across 16 nodes\n", profile.Name, tr.TotalAccesses())

	// 2. The nominal configuration of the paper's Table 2: 4x4 mesh,
	//    5-cycle baseline router pipeline, 4K-entry 4-way tree and
	//    directory caches, 2 MB L2 per node, 200-cycle main memory.
	cfg := protocol.DefaultConfig()

	// 3. Baseline: directory MSI. The network is a pure communication
	//    medium; every request is resolved at the home node's directory.
	base, err := protocol.Build(protocol.Spec{
		Config: cfg, Trace: tr, Think: profile.Think, Engine: protocol.KindDirectory,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := base.Run(100_000_000); err != nil {
		log.Fatal(err)
	}

	// 4. In-network: coherence directories live inside the routers as
	//    virtual trees; requests are steered toward nearby copies
	//    in-transit and writes tear trees down on their way to the home
	//    node.
	tree, err := protocol.Build(protocol.Spec{
		Config: cfg, Trace: tr, Think: profile.Think, Engine: protocol.KindTree,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := tree.Run(100_000_000); err != nil {
		log.Fatal(err)
	}

	// 5. Compare. Every run is continuously verified for coherence and
	//    sequential consistency (Machine.Run fails on any violation).
	fmt.Printf("\n%-22s %12s %12s\n", "", "avg read", "avg write")
	fmt.Printf("%-22s %9.1f cy %9.1f cy\n", "directory MSI", base.Lat.Read.Mean(), base.Lat.Write.Mean())
	fmt.Printf("%-22s %9.1f cy %9.1f cy\n", "in-network trees", tree.Lat.Read.Mean(), tree.Lat.Write.Mean())
	fmt.Printf("%-22s %11.1f%% %11.1f%%\n", "reduction",
		100*(base.Lat.Read.Mean()-tree.Lat.Read.Mean())/base.Lat.Read.Mean(),
		100*(base.Lat.Write.Mean()-tree.Lat.Write.Mean())/base.Lat.Write.Mean())

	fmt.Printf("\nin-network activity: %d reads served by tree sharers, %d teardowns completed, %d write bumps\n",
		tree.Counters.Get(stats.TreeSharerServes.String()),
		tree.Counters.Get(stats.TreeTeardownsCompleted.String()),
		tree.Counters.Get(stats.TreeWriteBumps.String()))
}
