package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"innetcc/internal/verify"
)

func TestParseSpecEmptyIsDefault(t *testing.T) {
	for _, text := range []string{"", "  ", ",", " , "} {
		s, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if s != DefaultSpec() {
			t.Fatalf("ParseSpec(%q) = %+v, want DefaultSpec %+v", text, s, DefaultSpec())
		}
	}
	if DefaultSpec().Injecting() {
		t.Fatal("DefaultSpec must not inject anything")
	}
}

func TestParseSpecFields(t *testing.T) {
	s, err := ParseSpec("drop=500,corrupt=20,stall=1000,stalllen=16,window=100:900,scope=all,timeout=4000,retries=7,backoff=32,probe=250")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{DropPPM: 500, CorruptPPM: 20, StallPPM: 1000, StallLen: 16,
		Start: 100, End: 900, Scope: ScopeAll, Timeout: 4000, Budget: 7, Backoff: 32, Probe: 250}
	if s != want {
		t.Fatalf("got %+v, want %+v", s, want)
	}
	if !s.Injecting() {
		t.Fatal("spec with non-zero rates must report Injecting")
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, text := range []string{
		"",
		"drop=1",
		"drop=1000000,scope=all",
		"corrupt=333,window=5:0",
		"stall=250000,stalllen=64,timeout=0,retries=0,backoff=1,probe=100",
	} {
		s, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.String(), err)
		}
		if back != s {
			t.Fatalf("round trip of %q: %+v != %+v", text, back, s)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, text := range []string{
		"drop",         // not key=value
		"frob=1",       // unknown key
		"drop=x",       // not a number
		"drop=1000001", // above ppm scale
		"drop=-1",      // negative rate
		"scope=maybe",  // unknown scope
		"window=9",     // not start:end
		"window=10:5",  // empty window
		"window=-1:5",  // negative start
		"stalllen=0",   // sub-cycle stall window
		"timeout=-5",   // negative recovery knob
		"retries=-1",   // negative budget
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", text)
		}
	}
}

// TestPlanDeterminism: a plan is a pure function of (seed, site, cycle) —
// re-querying in any order reproduces the identical schedule, and a
// different seed produces a different one.
func TestPlanDeterminism(t *testing.T) {
	spec, err := ParseSpec("drop=100000,corrupt=100000,stall=100000")
	if err != nil {
		t.Fatal(err)
	}
	schedule := func(seed uint64) []bool {
		p := spec.Plan(seed)
		var out []bool
		for cycle := int64(0); cycle < 200; cycle++ {
			for router := 0; router < 16; router++ {
				for port := 0; port < 5; port++ {
					out = append(out,
						p.DropAt(cycle, router, port),
						p.CorruptAt(cycle, router, port),
						p.StallAt(cycle, router, port))
				}
			}
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at query %d", i)
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

func TestPlanRateEndpoints(t *testing.T) {
	never := Plan{Spec: DefaultSpec(), Seed: 7}
	always := Plan{Spec: Spec{DropPPM: 1_000_000, CorruptPPM: 1_000_000,
		StallPPM: 1_000_000, StallLen: 8}, Seed: 7}
	for cycle := int64(0); cycle < 500; cycle++ {
		if never.DropAt(cycle, 3, 1) || never.CorruptAt(cycle, 3, 1) || never.StallAt(cycle, 3, 1) {
			t.Fatalf("zero-rate plan fired at cycle %d", cycle)
		}
		if !always.DropAt(cycle, 3, 1) || !always.CorruptAt(cycle, 3, 1) || !always.StallAt(cycle, 3, 1) {
			t.Fatalf("full-rate plan missed cycle %d", cycle)
		}
	}
}

func TestPlanWindow(t *testing.T) {
	spec := Spec{DropPPM: 1_000_000, StallLen: 8, Start: 100, End: 200}
	p := spec.Plan(9)
	for _, tc := range []struct {
		cycle int64
		want  bool
	}{{0, false}, {99, false}, {100, true}, {199, true}, {200, false}, {1 << 40, false}} {
		if got := p.DropAt(tc.cycle, 0, 0); got != tc.want {
			t.Errorf("DropAt(cycle=%d) = %v, want %v", tc.cycle, got, tc.want)
		}
	}
	open := Spec{DropPPM: 1_000_000, StallLen: 8, Start: 50}
	if !open.Plan(9).DropAt(1<<40, 0, 0) {
		t.Error("open-ended window must stay active")
	}
}

// TestStallWindows: stall sampling is per StallLen-cycle window, so the
// verdict is constant across each window.
func TestStallWindows(t *testing.T) {
	spec := Spec{StallPPM: 300_000, StallLen: 16}
	p := spec.Plan(11)
	fired := 0
	for w := int64(0); w < 200; w++ {
		first := p.StallAt(w*16, 2, 3)
		if first {
			fired++
		}
		for c := w * 16; c < (w+1)*16; c++ {
			if p.StallAt(c, 2, 3) != first {
				t.Fatalf("stall verdict changed inside window %d at cycle %d", w, c)
			}
		}
	}
	if fired == 0 || fired == 200 {
		t.Fatalf("30%% stall rate hit %d/200 windows; sampling looks broken", fired)
	}
}

func TestInjectorCounts(t *testing.T) {
	i := &Injector{Plan: Plan{Spec: Spec{DropPPM: 1_000_000, CorruptPPM: 1_000_000,
		StallPPM: 1_000_000, StallLen: 8}, Seed: 1}}
	for c := int64(0); c < 10; c++ {
		i.DropAt(c, 0, 0)
		i.CorruptAt(c, 0, 0)
		i.StallAt(c, 0, 0)
	}
	if i.Drops != 10 || i.Corruptions != 10 || i.StallCycles != 10 {
		t.Fatalf("counters = drops %d corruptions %d stalls %d, want 10 each",
			i.Drops, i.Corruptions, i.StallCycles)
	}
}

func TestTransientClassification(t *testing.T) {
	hang := &HangError{Cycle: 10, Seed: 3}
	exhausted := &RetryExhaustedError{Node: 1, Addr: 0x40, Attempts: 4, Cycle: 9, Seed: 3}
	invariant := &verify.Error{Cycle: 5, Seed: 3, Violations: []verify.Violation{{Inv: verify.SWMR, Detail: "x"}}}
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{hang, true},
		{exhausted, true},
		{fmt.Errorf("row failed: %w", hang), true},
		{fmt.Errorf("row failed: %w", exhausted), true},
		{invariant, false},
		{errors.New("panic: nil deref"), false},
		{nil, false},
	} {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestErrorMessagesCarrySeed(t *testing.T) {
	hang := &HangError{Cycle: 123, Seed: 0xabcd, Watchdog: true, Report: "r"}
	if s := hang.Error(); !strings.Contains(s, "stuck after 123") ||
		!strings.Contains(s, "0xabcd") || !strings.Contains(s, ": r") {
		t.Errorf("HangError message incomplete: %q", s)
	}
	ex := &RetryExhaustedError{Node: 2, Addr: 0x77, Write: true, Attempts: 4, Cycle: 9, Seed: 0xbeef}
	if s := ex.Error(); !strings.Contains(s, "0x77") || !strings.Contains(s, "0xbeef") ||
		!strings.Contains(s, "node 2") {
		t.Errorf("RetryExhaustedError message incomplete: %q", s)
	}
	inv := &verify.Error{Cycle: 8, Seed: 0xf00d, Violations: []verify.Violation{
		{Inv: verify.NoStaleCopy, Detail: "first"}, {Inv: verify.SWMR, Detail: "second"}}}
	if s := inv.Error(); !strings.Contains(s, "0xf00d") || !strings.Contains(s, "no-stale-copy: first") {
		t.Errorf("verify.Error message incomplete: %q", s)
	}
}
