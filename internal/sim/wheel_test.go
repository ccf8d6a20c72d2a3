package sim

import (
	"math/bits"
	"reflect"
	"testing"
)

// wheelTicker parks on slot wakes until the next cycle of its plan
// and records the cycles it ticks at. With no plan left it parks for good.
type wheelTicker struct {
	k     *Kernel
	id    TickerID
	plan  []int64 // cycles it asks to be woken at, ascending
	ticks []int64
}

func (w *wheelTicker) Tick(now int64) { w.ticks = append(w.ticks, now) }

func (w *wheelTicker) Quiescent() bool {
	for len(w.plan) > 0 && w.plan[0] <= w.k.Now() {
		w.plan = w.plan[1:]
	}
	if len(w.plan) == 0 {
		return true
	}
	return w.k.ParkUntil(w.plan[0], w.id)
}

func newWheelTicker(k *Kernel, plan ...int64) *wheelTicker {
	w := &wheelTicker{k: k, plan: plan}
	w.id = k.Register(w)
	return w
}

// checkActiveCount fails unless nActive equals the active bitmap's
// population count.
func checkActiveCount(t *testing.T, k *Kernel) {
	t.Helper()
	n := 0
	for _, w := range k.active {
		n += bits.OnesCount64(w)
	}
	if n != k.nActive {
		t.Fatalf("nActive = %d, active bitmap holds %d", k.nActive, n)
	}
}

func TestWheelWakeFiresAtRequestedCycle(t *testing.T) {
	k := NewKernel(1)
	// Delays 3, 255 (the ring's last slot ahead) and 1, so every distance
	// ParkUntil accepts at its edges is exercised.
	w := newWheelTicker(k, 4, 259, 260)
	k.Run(300)
	if want := []int64{1, 4, 259, 260}; !reflect.DeepEqual(w.ticks, want) {
		t.Fatalf("ticks %v, want %v", w.ticks, want)
	}
	if k.Now() != 300 {
		t.Fatalf("clock %d, want 300", k.Now())
	}
	checkActiveCount(t, k)
}

func TestParkUntilRefusesOutsideHorizon(t *testing.T) {
	k := NewKernel(1)
	w := newWheelTicker(k)
	for _, at := range []int64{-1, 0, 256, 257, 1 << 40} {
		if k.ParkUntil(at, w.id) {
			t.Errorf("ParkUntil(%d) at cycle 0 armed a wake", at)
		}
	}
	if k.cal.woken.any() {
		t.Fatalf("refused wakes left slot bits %x", k.cal.woken)
	}
	if !k.ParkUntil(255, w.id) {
		t.Fatal("ParkUntil(255) refused the ring's last slot ahead")
	}

	// A ticker asking for a wake 256 or more cycles out is refused and
	// stays active, ticking every cycle until the wake comes within reach.
	k2 := NewKernel(1)
	far := newWheelTicker(k2, 260)
	k2.Run(300)
	if want := []int64{1, 2, 3, 4, 5, 260}; !reflect.DeepEqual(far.ticks, want) {
		t.Fatalf("ticks %v, want %v (a refused park must stay active)", far.ticks, want)
	}
}

func TestIdleFastForwardStopsAtWheelWake(t *testing.T) {
	k := NewKernel(1)
	w := newWheelTicker(k, 10)
	fired := int64(-1)
	k.Schedule(50, func() { fired = k.Now() })
	// Only the slot wake separates cycle 1 from the event at 50: a
	// fast-forward that ignored it would jump to 49 and skip the tick.
	k.Run(100)
	if want := []int64{1, 10}; !reflect.DeepEqual(w.ticks, want) {
		t.Fatalf("Run: ticks %v, want %v", w.ticks, want)
	}
	if fired != 50 {
		t.Fatalf("event fired at %d, want 50", fired)
	}

	k2 := NewKernel(1)
	w2 := newWheelTicker(k2, 10)
	k2.Schedule(50, func() {})
	if !k2.RunUntil(func() bool { return len(w2.ticks) == 2 }, 100) {
		t.Fatal("RunUntil never saw the slot-woken tick")
	}
	if k2.Now() != 10 {
		t.Fatalf("RunUntil stopped at %d, want 10", k2.Now())
	}
}

func TestWheelWakeOfWokenTickerKeepsCount(t *testing.T) {
	k := NewKernel(1)
	w := newWheelTicker(k, 10)
	// A Wake at 5 finds the ticker parked with its slot wake pending; the
	// wake at 10 then finds it parked again and must count it once.
	k.Schedule(5, func() { k.Wake(w.id) })
	k.Run(7)
	checkActiveCount(t, k)
	k.Run(20)
	if want := []int64{1, 5, 10}; !reflect.DeepEqual(w.ticks, want) {
		t.Fatalf("ticks %v, want %v", w.ticks, want)
	}
	checkActiveCount(t, k)
}

// livelockParker re-parks on a slot wake five cycles out forever: always
// busy, never progressing, and parked at every end-of-cycle check.
type livelockParker struct {
	k  *Kernel
	id TickerID
}

func (p *livelockParker) Tick(int64)      {}
func (p *livelockParker) Quiescent() bool { return p.k.ParkUntil(p.k.Now()+5, p.id) }

func TestWatchdogTripsOnWheelParkedLivelock(t *testing.T) {
	k := NewKernel(1)
	p := &livelockParker{k: k}
	p.id = k.Register(p)
	k.SetWatchdog(20, nil)
	k.Run(1000)
	if !k.Hung() {
		t.Fatal("watchdog did not trip on a slot-parked ticker making no progress")
	}
	if k.Now() >= 1000 {
		t.Fatalf("run burned its full bound (now=%d) despite the trip", k.Now())
	}
}

// TestDigestFoldsWheelParkedAsActive checks the digest rule: a ticker
// parked on a slot wake digests exactly like the same ticker left active, at
// every cycle before and after its wake.
func TestDigestFoldsWheelParkedAsActive(t *testing.T) {
	parked := NewKernel(9)
	// Parked from cycle 1 until 8; then 300 is out of ParkUntil's reach,
	// so it stays active.
	newWheelTicker(parked, 8, 300)
	active := NewKernel(9)
	active.Register(&busyTicker{})
	for c := int64(1); c <= 12; c++ {
		parked.Run(c)
		active.Run(c)
		dp, da := NewDigest(), NewDigest()
		parked.DigestState(dp)
		active.DigestState(da)
		if dp.Sum() != da.Sum() {
			t.Fatalf("cycle %d: slot-parked digest %#x != active digest %#x", c, dp.Sum(), da.Sum())
		}
	}
}

func TestWakeByParksUntilWorkIsDue(t *testing.T) {
	k := NewKernel(1)
	w := newWheelTicker(k)
	k.Run(2) // ticks at 1, then parks with no plan
	k.WakeBy(9, w.id)
	k.Run(12)
	if want := []int64{1, 9}; !reflect.DeepEqual(w.ticks, want) {
		t.Fatalf("parked ticker: ticks %v, want %v", w.ticks, want)
	}

	// Out of ParkUntil's reach, or due now, WakeBy wakes at once.
	for _, at := range []int64{k.Now() + 256, k.Now()} {
		w.ticks = nil
		k.WakeBy(at, w.id)
		k.Run(k.Now() + 1)
		if want := []int64{k.Now()}; !reflect.DeepEqual(w.ticks, want) {
			t.Fatalf("WakeBy(%d): ticks %v, want %v", at, w.ticks, want)
		}
	}

	// An active ticker is left alone: no slot wake is armed for it.
	k2 := NewKernel(1)
	b := &busyTicker{}
	id := k2.Register(b)
	k2.WakeBy(5, id)
	if k2.cal.woken.any() {
		t.Fatalf("WakeBy armed slot bits %x for an active ticker", k2.cal.woken)
	}
	checkActiveCount(t, k)
	checkActiveCount(t, k2)
}
