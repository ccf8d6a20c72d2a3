package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

type countingTicker struct {
	ticks []int64
}

func (c *countingTicker) Tick(now int64) { c.ticks = append(c.ticks, now) }

func TestKernelStepAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	if k.Now() != 0 {
		t.Fatalf("new kernel at cycle %d, want 0", k.Now())
	}
	k.Step()
	if k.Now() != 1 {
		t.Fatalf("after one step at cycle %d, want 1", k.Now())
	}
	k.Run(10)
	if k.Now() != 10 {
		t.Fatalf("after Run(10) at cycle %d, want 10", k.Now())
	}
}

func TestKernelTickersSeeEveryCycle(t *testing.T) {
	k := NewKernel(1)
	c := &countingTicker{}
	k.Register(c)
	k.Run(5)
	want := []int64{1, 2, 3, 4, 5}
	if len(c.ticks) != len(want) {
		t.Fatalf("got %d ticks, want %d", len(c.ticks), len(want))
	}
	for i, w := range want {
		if c.ticks[i] != w {
			t.Fatalf("tick %d at cycle %d, want %d", i, c.ticks[i], w)
		}
	}
}

func TestScheduleFiresAtRequestedCycle(t *testing.T) {
	k := NewKernel(1)
	var firedAt int64 = -1
	k.Schedule(7, func() { firedAt = k.Now() })
	k.Run(20)
	if firedAt != 7 {
		t.Fatalf("event fired at %d, want 7", firedAt)
	}
}

func TestScheduleZeroDelayFiresNextCycle(t *testing.T) {
	k := NewKernel(1)
	k.Run(3)
	var firedAt int64 = -1
	k.Schedule(0, func() { firedAt = k.Now() })
	k.Step()
	if firedAt != 4 {
		t.Fatalf("zero-delay event fired at %d, want 4", firedAt)
	}
}

func TestScheduleOrderIsStableWithinCycle(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(3, func() { order = append(order, i) })
	}
	k.Run(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("event order %v not FIFO within a cycle", order)
		}
	}
}

func TestEventsFireBeforeTickers(t *testing.T) {
	k := NewKernel(1)
	var log []string
	k.Register(&funcTicker{func(now int64) {
		if now == 2 {
			log = append(log, "tick")
		}
	}})
	k.Schedule(2, func() { log = append(log, "event") })
	k.Run(3)
	if len(log) != 2 || log[0] != "event" || log[1] != "tick" {
		t.Fatalf("ordering %v, want [event tick]", log)
	}
}

type funcTicker struct{ fn func(int64) }

func (f *funcTicker) Tick(now int64) { f.fn(now) }

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.Register(&funcTicker{func(int64) { n++ }})
	ok := k.RunUntil(func() bool { return n >= 5 }, 100)
	if !ok {
		t.Fatal("RunUntil did not reach condition")
	}
	if k.Now() != 5 {
		t.Fatalf("stopped at cycle %d, want 5", k.Now())
	}
	ok = k.RunUntil(func() bool { return false }, 10)
	if ok {
		t.Fatal("RunUntil reported success for unreachable condition")
	}
}

func TestPending(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(100, func() {})
	k.Schedule(200, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
	k.Run(150)
	if k.Pending() != 1 {
		t.Fatalf("Pending after partial run = %d, want 1", k.Pending())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGZeroSeedIsUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG stuck at zero")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRNGInt64RangeBounds(t *testing.T) {
	r := NewRNG(7)
	err := quick.Check(func(a, b int32) bool {
		lo, hi := int64(a), int64(b)
		if hi < lo {
			lo, hi = hi, lo
		}
		v := r.Int64Range(lo, hi)
		return v >= lo && v <= hi
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Bounds(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(11)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("split streams appear identical")
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// TestDeferDelayedMatchesSchedule checks the Defer regimes. From the tick
// phase, delay <= 0 runs at the end of the deferring cycle (Now unchanged)
// and delay >= 1 lands on the event heap exactly as Schedule(delay, fn)
// from the end of the cycle would. Outside the tick phase Defer is
// Schedule, next-cycle clamp included.
func TestDeferDelayedMatchesSchedule(t *testing.T) {
	k := NewKernel(1)
	var endAt, delayedAt, eventAt int64 = -1, -1, -1
	k.Register(&funcTicker{func(now int64) {
		if now == 2 {
			k.Defer(0, func() { endAt = k.Now() })
			k.Defer(3, func() { delayedAt = k.Now() })
		}
	}})
	k.Schedule(6, func() {
		k.Defer(0, func() { eventAt = k.Now() })
	})
	k.Run(10)
	if endAt != 2 {
		t.Errorf("end-of-cycle call ran at cycle %d, want 2", endAt)
	}
	if delayedAt != 5 {
		t.Errorf("delayed Defer fired at cycle %d, want 5 (2 + delay 3)", delayedAt)
	}
	if eventAt != 7 {
		t.Errorf("Defer(0) from an event fired at cycle %d, want 7 (next cycle)", eventAt)
	}
}

// TestCycleEndHooksRunBeforeDrainInOrder checks the end-of-cycle stage:
// after the tick phase, OnCycleEnd hooks run in registration order, then
// the Defer queue drains in append order.
func TestCycleEndHooksRunBeforeDrainInOrder(t *testing.T) {
	k := NewKernel(1)
	var seq []string
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("drain-%d", i)
		k.Register(&funcTicker{func(now int64) {
			seq = append(seq, "tick")
			k.Defer(0, func() { seq = append(seq, name) })
		}})
	}
	k.OnCycleEnd(func() { seq = append(seq, "hook-a") })
	k.OnCycleEnd(func() { seq = append(seq, "hook-b") })
	k.Step()
	want := []string{"tick", "tick", "hook-a", "hook-b", "drain-0", "drain-1"}
	if !reflect.DeepEqual(seq, want) {
		t.Errorf("cycle sequence %v, want %v", seq, want)
	}
}

// TestDigestFoldsEventKindsAsBefore pins the digest of the pending
// timeline across the event representation: a closure scheduled with
// Schedule and a typed callback scheduled with ScheduleCall at the same
// (at, seq) fold identically, and a wake timer there folds as a timer with
// its target. The pinned sums are the ones closure events and wake timers
// produced before callbacks carried their operands.
func TestDigestFoldsEventKindsAsBefore(t *testing.T) {
	digest := func(add func(k *Kernel, id TickerID)) uint64 {
		k := NewKernel(7)
		id := k.Register(&busyTicker{})
		k.Run(3)
		add(k, id)
		d := NewDigest()
		k.DigestState(d)
		return d.Sum()
	}
	const callback, wake = 0x1b72831acd8ac4fb, 0xbf5639a1e7481cf4
	if got := digest(func(k *Kernel, _ TickerID) { k.Schedule(5, func() {}) }); got != callback {
		t.Errorf("closure event digest %#x, want %#x", got, uint64(callback))
	}
	typed := func(int, any) {}
	if got := digest(func(k *Kernel, _ TickerID) { k.ScheduleCall(5, typed, 9, k) }); got != callback {
		t.Errorf("typed callback digest %#x, want %#x", got, uint64(callback))
	}
	if got := digest(func(k *Kernel, id TickerID) { k.WakeAt(5, id) }); got != wake {
		t.Errorf("wake timer digest %#x, want %#x", got, uint64(wake))
	}
}

// TestScheduleCallPassesOperands checks that a typed callback runs with
// its operands, on the same timeline as closures: Defer and DeferCall
// queued in one tick take their sequence numbers in append order, after
// the callback scheduled before the run, and a zero delay runs at the end
// of the cycle.
func TestScheduleCallPassesOperands(t *testing.T) {
	k := NewKernel(1)
	var got []string
	rec := func(n int, arg any) { got = append(got, fmt.Sprintf("%d:%v", n, arg)) }
	k.Register(&funcTicker{fn: func(now int64) {
		if now == 1 {
			k.DeferCall(2, rec, 1, "a")
			k.Defer(2, func() { got = append(got, "closure") })
			k.DeferCall(0, rec, 2, "b")
		}
	}})
	k.ScheduleCall(3, rec, 3, "c")
	k.Run(5)
	if want := []string{"2:b", "3:c", "1:a", "closure"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("callbacks ran %v, want %v", got, want)
	}
}
