package exec

import (
	"runtime"
	"testing"

	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

// maxMallocsPerPacket bounds the heap allocations a warmed tree-engine
// simulation makes per delivered packet. Request and reply messages are
// still heap objects; the per-hop teardown and acknowledgment messages,
// their spawn lists, the ejection and NIC dispatch closures and the
// memory-fetch callbacks are not. The run below makes 0.43 per packet;
// with those on the per-packet path it made 2.34.
const maxMallocsPerPacket = 0.6

// TestTreeJobMallocsPerPacket measures a 4x4 tree-engine wsp job past its
// warm-up and fails if it allocates more than maxMallocsPerPacket per
// delivered packet: a closure or message allocation returning to the
// per-packet path shows here as a whole extra malloc per packet.
func TestTreeJobMallocsPerPacket(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	p, err := trace.ProfileByName("wsp")
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Key: "alloc/wsp/tree", Engine: protocol.KindTree, Config: protocol.DefaultConfig(),
		Profile: p, Accesses: 3000, SuiteSeed: 1}
	m, _, errRes := buildAttempt(job, 0, nil)
	if errRes != nil {
		t.Fatal(errRes.Err)
	}
	limit := m.Kernel.Now() + job.maxCycles()
	// Warm-up: the packet and message free-lists, FIFO rings, event heap
	// and cache slabs reach their working sizes.
	if done, err := m.RunSegment(20_000, limit); done {
		t.Fatalf("warm-up finished the run (err %v); lengthen the job", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	delivered0 := m.Mesh.DeliveredPackets
	if done, err := m.RunSegment(limit, limit); !done || err != nil {
		t.Fatalf("run did not complete: done=%v err=%v", done, err)
	}
	runtime.ReadMemStats(&ms1)
	packets := m.Mesh.DeliveredPackets - delivered0
	if packets < 10_000 {
		t.Fatalf("only %d packets delivered after warm-up; the measurement is too small", packets)
	}
	per := float64(ms1.Mallocs-ms0.Mallocs) / float64(packets)
	t.Logf("%d mallocs over %d delivered packets: %.3f per packet", ms1.Mallocs-ms0.Mallocs, packets, per)
	if per > maxMallocsPerPacket {
		t.Fatalf("%.3f mallocs per delivered packet, want <= %.2f", per, maxMallocsPerPacket)
	}
}
