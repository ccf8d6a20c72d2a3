package exec

import (
	"runtime"
	"testing"

	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

// Per-delivered-packet malloc bounds for warmed 4x4 wsp jobs, about 1.5x
// what each engine measures. Every protocol message comes from the
// machine's pool and every home-queue waiter slice is reused, so what is
// left is the growth of maps, cache slabs and queues to new high-water
// marks. The tree engine measures 0.017 per packet and the directory 0.026;
// with a fresh message per request and reply they measured 0.413 and 1.167.
const (
	maxTreeMallocsPerPacket      = 0.026
	maxDirectoryMallocsPerPacket = 0.04
)

// TestTreeJobMallocsPerPacket fails if a warmed tree-engine job allocates
// more than maxTreeMallocsPerPacket per delivered packet: a closure or
// message allocation returning to the per-packet path shows here as a
// whole extra malloc per packet.
func TestTreeJobMallocsPerPacket(t *testing.T) {
	checkMallocsPerPacket(t, protocol.KindTree, maxTreeMallocsPerPacket)
}

// TestDirectoryJobMallocsPerPacket is TestTreeJobMallocsPerPacket for the
// directory engine, whose misses chain requests, forwards, invalidations,
// acknowledgments and replies.
func TestDirectoryJobMallocsPerPacket(t *testing.T) {
	checkMallocsPerPacket(t, protocol.KindDirectory, maxDirectoryMallocsPerPacket)
}

// checkMallocsPerPacket measures a 4x4 wsp job on engine past its warm-up
// and fails if it allocates more than limit per delivered packet.
func checkMallocsPerPacket(t *testing.T, engine protocol.EngineKind, limit float64) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	p, err := trace.ProfileByName("wsp")
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Key: "alloc/wsp/" + engine.String(), Engine: engine, Config: protocol.DefaultConfig(),
		Profile: p, Accesses: 3000, SuiteSeed: 1}
	m, _, errRes := buildAttempt(job, 0, nil)
	if errRes != nil {
		t.Fatal(errRes.Err)
	}
	limitCycle := m.Kernel.Now() + job.maxCycles()
	// Warm-up: the packet and message free lists, FIFO rings, event heap
	// and cache slabs reach their working sizes.
	if done, err := m.RunSegment(20_000, limitCycle); done {
		t.Fatalf("warm-up finished the run (err %v); lengthen the job", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	delivered0 := m.Mesh.DeliveredPackets
	if done, err := m.RunSegment(limitCycle, limitCycle); !done || err != nil {
		t.Fatalf("run did not complete: done=%v err=%v", done, err)
	}
	runtime.ReadMemStats(&ms1)
	packets := m.Mesh.DeliveredPackets - delivered0
	if packets < 10_000 {
		t.Fatalf("only %d packets delivered after warm-up; the measurement is too small", packets)
	}
	per := float64(ms1.Mallocs-ms0.Mallocs) / float64(packets)
	t.Logf("%d mallocs over %d delivered packets: %.3f per packet", ms1.Mallocs-ms0.Mallocs, packets, per)
	if per > limit {
		t.Fatalf("%.3f mallocs per delivered packet, want <= %.3f", per, limit)
	}
}
