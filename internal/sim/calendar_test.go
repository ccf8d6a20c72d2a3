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

// bucketAts lists the fire cycles of the events waiting in bucket s, in
// the bucket's order.
func bucketAts(k *Kernel, s int) []int64 {
	var ats []int64
	for i := k.cal.head[s]; i >= 0; i = k.cal.nodes[i].next {
		ats = append(ats, k.cal.nodes[i].e.at)
	}
	return ats
}

// Events 255, 256 and 257 cycles out straddle a lap of the calendar ring
// (the first lands in the current lap, the others in the next) and still
// fire in (cycle, schedule order) order.
func TestCalendarReachBoundaryOrder(t *testing.T) {
	k := NewKernel(1)
	k.Run(100)
	var log []firing
	for i, d := range []int64{257, 255, 256, 255, 257, 256} {
		logEvent(k, &log, d, i)
	}
	for s, want := range map[int][]int64{99: {355, 355}, 100: {356, 356}, 101: {357, 357}} {
		if got := bucketAts(k, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("bucket %d holds %v, want %v", s, got, want)
		}
	}
	k.Run(400)
	want := []firing{{355, 1}, {355, 3}, {356, 2}, {356, 5}, {357, 0}, {357, 4}}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}

// An event scheduled more than a lap out and events later scheduled for
// the same cycle share its bucket, in schedule order.
func TestCalendarLapsShareBucketInScheduleOrder(t *testing.T) {
	k := NewKernel(1)
	k.Run(10)
	var log []firing
	logEvent(k, &log, 300, 0) // cycle 310, a lap out
	k.Run(150)                // passes bucket 54 at cycle 54, leaving it
	logEvent(k, &log, 160, 1) // cycle 310
	logEvent(k, &log, 159, 2) // cycle 309
	logEvent(k, &log, 160, 3) // cycle 310
	if got, want := bucketAts(k, 310%calSlots), []int64{310, 310, 310}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bucket %d holds %v, want %v", 310%calSlots, got, want)
	}
	k.Run(400)
	want := []firing{{309, 2}, {310, 0}, {310, 1}, {310, 3}}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}

// One bucket holding events of three laps and a slot wake: the wake fires
// first, then the due lap's events in schedule order, and the later laps
// stay in place, ahead of what the fired events schedule a lap out.
func TestCalendarBucketOfThreeLapsFiresInOrder(t *testing.T) {
	k := NewKernel(1)
	w := newWheelTicker(k)
	k.Run(1) // ticks at 1, then parks with no plan
	var log []firing
	var wokenFirst []bool
	// Cycles 601, 89, 345, 89, 601, 345: all in bucket 89.
	for i, d := range []int64{600, 88, 344, 88, 600, 344} {
		i := i
		k.Schedule(d, func() {
			log = append(log, firing{k.Now(), i})
			if k.Now() == 89 {
				wokenFirst = append(wokenFirst, k.isActive(w.id))
				logEvent(k, &log, 512, 10+i) // cycle 601, behind labels 0 and 4
			}
		})
	}
	if !k.ParkUntil(89, w.id) {
		t.Fatal("ParkUntil(89) refused")
	}
	k.Run(100)
	if got, want := bucketAts(k, 89), []int64{601, 345, 601, 345, 601, 601}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after cycle 89, bucket 89 holds %v, want %v", got, want)
	}
	k.Run(700)
	want := []firing{{89, 1}, {89, 3}, {345, 2}, {345, 5}, {601, 0}, {601, 4}, {601, 11}, {601, 13}}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	if want := []bool{true, true}; !reflect.DeepEqual(wokenFirst, want) {
		t.Fatalf("ticker active when cycle 89's events fired: %v, want %v", wokenFirst, want)
	}
	if want := []int64{1, 89}; !reflect.DeepEqual(w.ticks, want) {
		t.Fatalf("ticks %v, want %v", w.ticks, want)
	}
	if k.cal.head[89] >= 0 || k.cal.events.has(89) {
		t.Fatalf("bucket 89 not emptied: %v", bucketAts(k, 89))
	}
}

// skipIdle lands on the cycle before the earliest pending event wherever
// it waits: in the current lap (including past the ring's wrap), in a
// later lap, or behind a non-empty bucket that holds only later laps.
func TestSkipIdleFindsEarliestEvent(t *testing.T) {
	// Each case schedules from cycle 1, where the ticker has parked, or
	// from a later cycle the clock skips to first. In the case names, a
	// "bucket" event is scheduled within one lap and a "heap" event a lap
	// or more out; the names are kept as stable subtest IDs.
	cases := []struct {
		name   string
		delays [][2]int64 // {schedule at cycle, delay}
		want   int64
	}{
		{"bucket", [][2]int64{{0, 100}, {0, 200}}, 100},
		{"bucket across the wrap", [][2]int64{{250, 10}}, 259},
		{"heap", [][2]int64{{0, 1000}, {0, 700}}, 700},
		// The nearest non-empty bucket holds only the heap event.
		{"bucket before heap", [][2]int64{{0, 300}, {0, 200}}, 200},
		// The heap event is within a lap when the bucket event is added.
		{"heap before bucket", [][2]int64{{0, 300}, {100, 250}}, 300},
		{"three laps in one bucket", [][2]int64{{0, 600}, {0, 344}, {0, 856}}, 344},
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
// a lap of the calendar ring from its RNG, and parks between them, so runs
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
