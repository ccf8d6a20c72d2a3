package sim

import (
	"reflect"
	"testing"
)

// parkingTicker is a Parker that ticks while it has work units queued and
// reports quiescence when drained. Work is handed to it via give(), which
// mimics a producer: enqueue plus Kernel.Wake.
type parkingTicker struct {
	k      *Kernel
	id     TickerID
	work   int
	ticks  []int64
	onTick func(now int64)
}

func (p *parkingTicker) Tick(now int64) {
	p.ticks = append(p.ticks, now)
	if p.work > 0 {
		p.work--
	}
	if p.onTick != nil {
		p.onTick(now)
	}
}

func (p *parkingTicker) Quiescent() bool { return p.work == 0 }

func (p *parkingTicker) give(n int) {
	p.work += n
	p.k.Wake(p.id)
}

func TestParkerParksWhenQuiescent(t *testing.T) {
	k := NewKernel(1)
	p := &parkingTicker{k: k}
	p.id = k.Register(p)
	p.work = 2
	k.Run(10)
	// The cycle-1 tick leaves one unit, the cycle-2 tick drains the last
	// and reports quiescence, so the kernel parks it then and there. No
	// ticks after that.
	want := []int64{1, 2}
	if len(p.ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", p.ticks, want)
	}
	for i, w := range want {
		if p.ticks[i] != w {
			t.Fatalf("ticks %v, want %v", p.ticks, want)
		}
	}
}

func TestWakeReactivatesParkedTicker(t *testing.T) {
	k := NewKernel(1)
	p := &parkingTicker{k: k}
	p.id = k.Register(p)
	k.Run(5) // parks after the first tick (no work)
	if got := len(p.ticks); got != 1 {
		t.Fatalf("%d ticks while idle, want 1", got)
	}
	p.give(1)
	k.Run(10)
	// Woken at cycle 5: the cycle-6 tick drains the unit and the ticker
	// parks again in the same cycle.
	if got := len(p.ticks); got != 2 {
		t.Fatalf("%d ticks after wake, want 2 (got %v)", got, p.ticks)
	}
	if p.ticks[1] != 6 {
		t.Fatalf("post-wake ticks %v, want second tick at cycle 6", p.ticks)
	}
}

func TestWakeIsIdempotent(t *testing.T) {
	k := NewKernel(1)
	p := &parkingTicker{k: k}
	p.id = k.Register(p)
	k.Wake(p.id) // waking an active ticker must not corrupt the active count
	k.Wake(p.id)
	k.Run(3)
	if len(p.ticks) == 0 {
		t.Fatal("ticker never ticked")
	}
}

// TestEventBeforeTickerAcrossParkWake pins the intra-cycle ordering
// guarantee across a park/wake boundary: an event scheduled to fire in the
// cycle a parked ticker is woken runs before the woken ticker's tick — the
// same events-then-tickers order an always-active ticker sees.
func TestEventBeforeTickerAcrossParkWake(t *testing.T) {
	k := NewKernel(1)
	var log []string
	p := &parkingTicker{k: k}
	p.id = k.Register(p)
	k.Register(&funcTicker{func(now int64) {
		if now >= 5 && len(p.ticks) > 0 && p.ticks[len(p.ticks)-1] == now {
			log = append(log, "parker-ticked")
		}
	}})
	k.Run(3) // parker parks at cycle 1 (no work)
	if len(p.ticks) != 1 {
		t.Fatalf("parker ticks %v, want exactly one before parking", p.ticks)
	}
	k.Schedule(2, func() {
		log = append(log, "event")
		p.give(1) // wake from the event phase of cycle 5
	})
	k.Run(8)
	// The event fires at cycle 5 and wakes the parker; the parker must
	// tick in that same cycle, after the event.
	if p.ticks[1] != 5 {
		t.Fatalf("woken parker first ticked at %d, want 5 (same cycle as the waking event)", p.ticks[1])
	}
	if len(log) != 2 || log[0] != "event" || log[1] != "parker-ticked" {
		t.Fatalf("ordering %v, want [event parker-ticked]", log)
	}
}

// TestWakeAtFiresAtRequestedCycle covers self-scheduled wake timers: the
// ticker parks and is reactivated exactly at the requested cycle, and the
// timer never counts as a pending event.
func TestWakeAtFiresAtRequestedCycle(t *testing.T) {
	k := NewKernel(1)
	p := &parkingTicker{k: k}
	p.id = k.Register(p)
	k.Run(2) // parks at cycle 1
	if at := k.WakeAt(5, p.id); at != 7 {
		t.Fatalf("WakeAt returned fire cycle %d, want 7", at)
	}
	if k.Pending() != 0 {
		t.Fatalf("wake timer counted as pending event: %d", k.Pending())
	}
	k.Run(10)
	if len(p.ticks) != 2 || p.ticks[1] != 7 {
		t.Fatalf("ticks %v, want exactly one wake tick, at cycle 7", p.ticks)
	}
}

func TestScheduleReturnsEffectiveFireCycle(t *testing.T) {
	k := NewKernel(1)
	k.Run(4)
	if at := k.Schedule(3, func() {}); at != 7 {
		t.Fatalf("Schedule(3) at cycle 4 returned %d, want 7", at)
	}
	// The silent clamp is now observable: delays below one report the
	// next cycle, which is when the callback actually runs.
	for _, d := range []int64{0, -5} {
		var fired int64 = -1
		at := k.Schedule(d, func() { fired = k.Now() })
		if at != k.Now()+1 {
			t.Fatalf("Schedule(%d) returned %d, want next cycle %d", d, at, k.Now()+1)
		}
		k.Step()
		if fired != at {
			t.Fatalf("Schedule(%d) fired at %d, returned %d", d, fired, at)
		}
	}
}

// TestRunFastForwardsIdleStretches proves the all-parked fast-forward: the
// clock jumps over dead cycles instead of stepping them, without changing
// when events fire.
func TestRunFastForwardsIdleStretches(t *testing.T) {
	k := NewKernel(1)
	p := &parkingTicker{k: k}
	p.id = k.Register(p)
	var firedAt int64
	k.Schedule(1000, func() { firedAt = k.Now() })
	k.Run(5000)
	if firedAt != 1000 {
		t.Fatalf("event fired at %d, want 1000", firedAt)
	}
	if k.Now() != 5000 {
		t.Fatalf("clock at %d, want 5000", k.Now())
	}
	// The parker ticked once before parking, once when the cycle-1000
	// event phase ran (it stays parked: no wake), and never in between.
	if len(p.ticks) != 1 {
		t.Fatalf("parked ticker ticked %d times across idle stretch, want 1 (%v)", len(p.ticks), p.ticks)
	}
}

func TestSetAlwaysTickDisablesParking(t *testing.T) {
	k := NewKernel(1)
	k.SetAlwaysTick(true)
	p := &parkingTicker{k: k}
	p.id = k.Register(p)
	k.Run(6)
	if len(p.ticks) != 6 {
		t.Fatalf("always-tick ticked %d cycles, want 6", len(p.ticks))
	}
}

// TestRunUntilFastForwardStopsAtLimit guards the loop bound: fast-forward
// must never push the clock past the caller's cycle budget.
func TestRunUntilFastForwardStopsAtLimit(t *testing.T) {
	k := NewKernel(1)
	p := &parkingTicker{k: k}
	p.id = k.Register(p)
	if ok := k.RunUntil(func() bool { return false }, 100); ok {
		t.Fatal("unreachable condition reported reached")
	}
	if k.Now() != 100 {
		t.Fatalf("clock at %d after RunUntil(…, 100), want exactly 100", k.Now())
	}
}

// TestShardedWakeTimerHonoredWhileParked: a ticker that parks (its active
// bit cleared) must still see a Defer(delay>=1) it issued on its last tick
// fire on schedule, and a WakeAt timer must reactivate it at exactly the
// requested cycle, even though the cycles in between are fast-forwarded.
func TestShardedWakeTimerHonoredWhileParked(t *testing.T) {
	k := NewKernel(1)
	ps := make([]*parkingTicker, 4)
	for i := range ps {
		ps[i] = &parkingTicker{k: k}
		ps[i].id = k.Register(ps[i])
	}
	var deferFired int64 = -1
	ps[3].work = 1
	ps[3].onTick = func(now int64) {
		if now != 1 {
			return
		}
		// Issued mid-tick, reaches the event heap at the end of the
		// cycle; the issuer parks this same cycle.
		k.Defer(5, func() {
			deferFired = k.Now()
			k.Wake(ps[3].id)
		})
		k.WakeAt(9, ps[3].id)
	}
	k.Run(20)
	if deferFired != 6 {
		t.Errorf("deferred call fired at cycle %d, want 6 (1 + delay 5)", deferFired)
	}
	// Cycle 1: every ticker's first tick (then all park). Cycle 6: the
	// deferred callback's Wake. Cycle 10: the WakeAt(9) timer from cycle 1.
	if want := []int64{1, 6, 10}; !reflect.DeepEqual(ps[3].ticks, want) {
		t.Errorf("parked ticker ticked at %v, want %v", ps[3].ticks, want)
	}
}

// TestIntraCycleWakeSemantics pins the bitmap walk's ordering contract: a
// wake to a later-registered ticker lands in the current cycle (the walk
// has not reached it yet), while a wake to an earlier-registered ticker,
// whose position the walk already passed, waits for the next cycle.
func TestIntraCycleWakeSemantics(t *testing.T) {
	k := NewKernel(1)
	// A filler parker, then parked target early, the waker, and parked
	// target late, so the waker sits between its two targets in ID order.
	filler := &parkingTicker{k: k}
	filler.id = k.Register(filler)
	early := &parkingTicker{k: k}
	early.id = k.Register(early)
	waker := &parkingTicker{k: k, work: 1 << 20}
	waker.id = k.Register(waker)
	late := &parkingTicker{k: k}
	late.id = k.Register(late)

	waker.onTick = func(now int64) {
		if now == 3 {
			k.Wake(late.id)  // ahead of the walk: ticks this cycle
			k.Wake(early.id) // behind the walk: ticks next cycle
		}
	}

	k.Run(5)
	if want := []int64{1, 3}; !reflect.DeepEqual(late.ticks, want) {
		t.Errorf("later-ID wake target ticked at %v, want %v (same-cycle wake)", late.ticks, want)
	}
	if want := []int64{1, 4}; !reflect.DeepEqual(early.ticks, want) {
		t.Errorf("earlier-ID wake target ticked at %v, want %v (next-cycle wake)", early.ticks, want)
	}
}

// TestIntraCycleWakeAcrossBitmapWords repeats the wake contract across a
// 64-ticker bitmap word boundary.
func TestIntraCycleWakeAcrossBitmapWords(t *testing.T) {
	k := NewKernel(1)
	ps := make([]*parkingTicker, 130)
	for i := range ps {
		ps[i] = &parkingTicker{k: k}
		ps[i].id = k.Register(ps[i])
	}
	waker := ps[70]
	waker.work = 1 << 20
	waker.onTick = func(now int64) {
		if now == 3 {
			k.Wake(ps[129].id)
			k.Wake(ps[5].id)
		}
	}
	k.Run(5)
	if want := []int64{1, 3}; !reflect.DeepEqual(ps[129].ticks, want) {
		t.Errorf("later-word wake target ticked at %v, want %v", ps[129].ticks, want)
	}
	if want := []int64{1, 4}; !reflect.DeepEqual(ps[5].ticks, want) {
		t.Errorf("earlier-word wake target ticked at %v, want %v", ps[5].ticks, want)
	}
}
