package verify_test

import (
	"math"
	"reflect"
	"testing"

	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

// TestRunSegmentPausesExactly splits runs into 7-cycle segments, which
// puts many pauses inside idle stretches the kernel fast-forwards. Every
// pause must leave the clock exactly at its stopAt, and the split run must
// end exactly like a one-shot run: same cycle, latencies, counters and
// state digest.
func TestRunSegmentPausesExactly(t *testing.T) {
	const seg = 7
	for _, name := range []string{"ray", "wsp", "bar"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := trace.ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			build := func() *protocol.Machine {
				cfg := protocol.DefaultConfig()
				cfg.Seed = 42
				m, err := protocol.Build(protocol.Spec{
					Config: cfg,
					Trace:  trace.Generate(p, cfg.Nodes(), 60, cfg.Seed),
					Think:  p.Think,
					Engine: protocol.KindDirectory,
				})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			const limit = 20_000_000
			whole := build()
			if _, err := whole.RunSegment(math.MaxInt64, limit); err != nil {
				t.Fatalf("one-shot run: %v", err)
			}
			split := build()
			pauses := 0
			for {
				stopAt := split.Kernel.Now() + seg
				done, err := split.RunSegment(stopAt, limit)
				if done {
					if err != nil {
						t.Fatalf("split run: %v", err)
					}
					break
				}
				pauses++
				if now := split.Kernel.Now(); now != stopAt {
					t.Fatalf("pause %d: clock at %d, want stopAt %d", pauses, now, stopAt)
				}
			}
			if pauses == 0 {
				t.Fatal("run never paused; the test is vacuous")
			}
			if a, b := split.Kernel.Now(), whole.Kernel.Now(); a != b {
				t.Errorf("split run ended at %d, one-shot at %d", a, b)
			}
			if !reflect.DeepEqual(split.Lat, whole.Lat) {
				t.Errorf("latencies diverged:\n split: %+v\n whole: %+v", split.Lat, whole.Lat)
			}
			if a, b := split.LocalHits, whole.LocalHits; a != b {
				t.Errorf("local hits diverged: %d vs %d", a, b)
			}
			for _, n := range whole.Counters.Names() {
				if a, b := split.Counters.Get(n), whole.Counters.Get(n); a != b {
					t.Errorf("counter %s diverged: %d vs %d", n, a, b)
				}
			}
			if a, b := split.StateDigest(), whole.StateDigest(); a != b {
				t.Errorf("state digest diverged: %#x vs %#x", a, b)
			}
		})
	}
}
