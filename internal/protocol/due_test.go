package protocol

import (
	"testing"

	"innetcc/internal/fault"
	"innetcc/internal/network"
	"innetcc/internal/stats"
	"innetcc/internal/trace"
)

// Nodes due in the same cycle issue in ascending ID order, as a scan over
// every node would issue them, and every node issues its whole stream.
func TestDueNodesIssueInIDOrder(t *testing.T) {
	const perNode = 30
	scripts := map[int][]trace.Access{}
	for n := 0; n < 16; n++ {
		for i := 0; i < perNode; i++ {
			scripts[n] = append(scripts[n], trace.NewAccess(uint64((n*7+i*13)%50), i%3 == 0))
		}
	}
	m, err := Build(Spec{Config: DefaultConfig(), Trace: echoTrace(scripts), Think: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := newEchoEngine(m)
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if len(e.issued) != 16*perNode {
		t.Fatalf("%d issues, want %d", len(e.issued), 16*perNode)
	}
	shared := 0
	for i := 1; i < len(e.issued); i++ {
		prev, cur := e.issued[i-1], e.issued[i]
		if cur[0] != prev[0] {
			continue
		}
		shared++
		if cur[1] <= prev[1] {
			t.Fatalf("cycle %d: node %d issued after node %d", cur[0], cur[1], prev[1])
		}
	}
	if shared < 15 {
		t.Fatalf("only %d issues shared a cycle with the one before; the test needs same-cycle issues", shared)
	}
}

// A drop notification reissues the outstanding access and moves its reply
// deadline; the deadline it replaces must not wake the machine on its own.
// The digests pin the kernel's schedule sequence and event timeline as the
// per-cycle scan over every node produced them.
func TestDropRetryLeavesNoStaleWake(t *testing.T) {
	// Node 3 is the only node with work, so the machine parks on a wake
	// timer for the first attempt's deadline; the retry's later deadline
	// needs no timer of its own until that one fires.
	scripts := map[int][]trace.Access{3: {trace.NewAccess(0x40, true), trace.NewAccess(0x41, false)}}
	plan := &fault.Plan{Spec: fault.Spec{StallLen: 1, Timeout: 400, Budget: 3, Backoff: 8}, Seed: 1}
	m, err := Build(Spec{Config: DefaultConfig(), Trace: echoTrace(scripts), Think: 5, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	e := newEchoEngine(m)
	const limit = 1_000_000
	if done, err := m.RunSegment(4, limit); done {
		t.Fatalf("run ended at cycle %d (err %v) before the drop", m.Kernel.Now(), err)
	}
	if n := m.Nodes[3]; !n.outstanding || n.attempt != 0 {
		t.Fatalf("node 3 outstanding=%v attempt=%d at cycle 4, want an outstanding first attempt", n.outstanding, n.attempt)
	}
	drop := &network.Packet{Payload: &Msg{Type: WrReq, Addr: 0x40, Requester: 3}}
	m.onPacketDrop(drop, fault.DropInjected, m.Kernel.Now())
	if got := m.Counters.Get(stats.RetryReissues.String()); got != 1 {
		t.Fatalf("RetryReissues = %d after the drop, want 1", got)
	}
	mid := m.StateDigest()
	if _, err := m.RunSegment(limit, limit); err != nil {
		t.Fatal(err)
	}
	if got := m.Counters.Get(stats.RetryStaleReplies.String()); got != 1 {
		t.Fatalf("RetryStaleReplies = %d, want 1 (the first attempt's reply)", got)
	}
	if e.misses != 3 {
		t.Fatalf("%d misses, want 3 (two accesses plus one reissue)", e.misses)
	}
	const wantMid, wantEnd, wantCycles = 0xddaac8a43e0a7a20, 0xaa5e5341088f05b4, 106
	if mid != wantMid || m.StateDigest() != wantEnd || m.Kernel.Now() != wantCycles {
		t.Fatalf("digests %#x / %#x at cycle %d, want %#x / %#x at cycle %d",
			mid, m.StateDigest(), m.Kernel.Now(), uint64(wantMid), uint64(wantEnd), wantCycles)
	}
}
