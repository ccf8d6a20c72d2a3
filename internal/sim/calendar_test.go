package sim

import (
	"reflect"
	"testing"
)

// firing is one fired event in a test log: the cycle it fired at and the
// label it was scheduled with.
type firing struct {
	at    int64
	label int
}

// logEvent schedules an event delay cycles out that appends label to log.
func logEvent(k *Kernel, log *[]firing, delay int64, label int) {
	k.Schedule(delay, func() { *log = append(*log, firing{k.Now(), label}) })
}

// Events 255, 256 and 257 cycles out straddle the calendar ring's reach
// (the first is bucketed, the others go to the heap) and still fire in
// (cycle, schedule order) order.
func TestCalendarReachBoundaryOrder(t *testing.T) {
	k := NewKernel(1)
	k.Run(100)
	var log []firing
	for i, d := range []int64{257, 255, 256, 255, 257, 256} {
		logEvent(k, &log, d, i)
	}
	if k.cal.n != 2 || len(k.events) != 4 {
		t.Fatalf("%d bucketed and %d heap events, want 2 and 4", k.cal.n, len(k.events))
	}
	k.Run(400)
	want := []firing{{355, 1}, {355, 3}, {356, 2}, {356, 5}, {357, 0}, {357, 4}}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}

// An event scheduled onto the heap and events later bucketed for the same
// cycle fire in schedule order: the heap's first.
func TestCalendarHeapAndBucketShareCycle(t *testing.T) {
	k := NewKernel(1)
	k.Run(10)
	var log []firing
	logEvent(k, &log, 300, 0) // cycle 310, on the heap
	k.Run(150)
	logEvent(k, &log, 160, 1) // cycle 310, bucketed
	logEvent(k, &log, 159, 2) // cycle 309, bucketed
	logEvent(k, &log, 160, 3) // cycle 310, bucketed
	if k.cal.n != 3 || len(k.events) != 1 {
		t.Fatalf("%d bucketed and %d heap events, want 3 and 1", k.cal.n, len(k.events))
	}
	k.Run(400)
	want := []firing{{309, 2}, {310, 0}, {310, 1}, {310, 3}}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}

// skipIdle lands on the cycle before the earliest pending event wherever
// the events wait: only in buckets (including past the ring's wrap), only
// on the heap, or in both with either one earlier.
func TestSkipIdleFindsEarliestEvent(t *testing.T) {
	// Each case schedules from cycle 1, where the ticker has parked, or
	// from a later cycle the clock skips to first.
	cases := []struct {
		name   string
		delays [][2]int64 // {schedule at cycle, delay}
		want   int64
	}{
		{"bucket", [][2]int64{{0, 100}, {0, 200}}, 100},
		{"bucket across the wrap", [][2]int64{{250, 10}}, 259},
		{"heap", [][2]int64{{0, 1000}, {0, 700}}, 700},
		{"bucket before heap", [][2]int64{{0, 300}, {0, 200}}, 200},
		{"heap before bucket", [][2]int64{{0, 300}, {100, 250}}, 300},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel(1)
			p := &parkingTicker{k: k}
			p.id = k.Register(p)
			k.Run(1) // the ticker parks
			for _, d := range c.delays {
				if k.Now() < d[0] {
					if !k.skipIdle(d[0]) || k.Now() != d[0] {
						t.Fatalf("setup: clock %d, want %d", k.Now(), d[0])
					}
				}
				k.Schedule(d[1], func() {})
			}
			if reached := k.skipIdle(5000); reached || k.Now() != c.want {
				t.Fatalf("skipIdle: clock %d (limit reached %v), want %d", k.Now(), reached, c.want)
			}
		})
	}
}

// churnTicker schedules events and wake timers at delays on both sides of
// the calendar's reach from its RNG, and parks between them, so runs
// fast-forward across idle stretches.
type churnTicker struct {
	k   *Kernel
	id  TickerID
	log []firing
}

func (c *churnTicker) Tick(now int64) {
	r := c.k.RNG()
	delays := []int64{1, 37, 254, 255, 256, 257, 300, 611}
	for i := r.Intn(2); i >= 0; i-- {
		label := r.Intn(1000)
		c.k.Schedule(delays[r.Intn(len(delays))], func() {
			c.log = append(c.log, firing{c.k.Now(), label})
			c.k.Wake(c.id)
		})
	}
	if r.Intn(4) == 0 {
		c.k.WakeAt(delays[r.Intn(len(delays))], c.id)
	}
}

func (c *churnTicker) Quiescent() bool { return true }

// A run split at cycles around the ring's wrap digests, and fires its
// events, exactly as an unsplit run.
func TestCalendarSegmentedRunMatchesUnsplit(t *testing.T) {
	run := func(stops ...int64) (uint64, []firing) {
		k := NewKernel(3)
		c := &churnTicker{k: k}
		c.id = k.Register(c)
		for _, s := range stops {
			k.Run(s)
		}
		d := NewDigest()
		k.DigestState(d)
		return d.Sum(), c.log
	}
	wantDigest, wantLog := run(3000)
	if len(wantLog) < 50 {
		t.Fatalf("only %d events fired; the run is too quiet to test", len(wantLog))
	}
	gotDigest, gotLog := run(255, 256, 257, 511, 512, 700, 1024, 3000)
	if gotDigest != wantDigest || !reflect.DeepEqual(gotLog, wantLog) {
		t.Fatalf("segmented run diverged: digest %#x vs %#x, %d vs %d events", gotDigest, wantDigest, len(gotLog), len(wantLog))
	}
}
