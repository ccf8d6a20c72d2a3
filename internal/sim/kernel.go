// Package sim provides the cycle-driven simulation kernel used by every
// component in the repository: a global clock, an ordered event queue for
// delayed callbacks (memory accesses, controller service times), and a
// deterministic pseudo-random number generator so that every experiment is
// exactly reproducible from its seed.
//
// The kernel advances in whole cycles. Within a cycle, due events fire first
// (in schedule order), then every active registered Ticker ticks once in
// registration order. Components that need sub-cycle ordering encode it by
// scheduling events rather than relying on ticker order.
//
// # Scheduling guarantee
//
// Schedule never fires a callback within the cycle that scheduled it: a
// delay of zero or less is clamped so the callback runs at the start of the
// next cycle. This next-cycle guarantee is what keeps component
// interactions race-free — a handler can never observe a half-updated peer
// in its own cycle. Schedule returns the effective fire cycle so callers
// that care (tests, schedulers layering their own timelines) can see the
// clamp instead of silently mispredicting it.
//
// # The calendar ring
//
// The kernel's one timeline is a calendar ring of 256 per-cycle slots
// (Brown's calendar queue with one-cycle buckets). Each slot holds a
// bucket of events and a wake bitmap. Every event goes into the bucket of
// its cycle modulo 256, in append order, so all the events of one cycle
// share a bucket in schedule order. An event 256 or more cycles out — a
// fault plan's timeout or probe; the paper's traffic schedules none —
// waits in its bucket through the laps before its own: a cycle fires only
// its bucket's events whose cycle is now, and leaves later laps in place.
//
// # Active-set ticking
//
// Most tickers in a large simulation are idle in any given cycle: a 64-node
// mesh at low injection has a handful of routers carrying flits while the
// rest have empty FIFOs, and a router holding flits spends most cycles
// waiting for them to clear its pipeline. (The network parks a router on a
// slot wake as soon as a tick leaves it only such packets, its last grant
// included; the protocol machine, one ticker for every CPU, keeps a due
// queue of the cycles its CPUs can next act at and parks until the
// earliest.) Tickers that additionally
// implement Parker are therefore parked as soon as they report quiescence
// after a tick, and skip the per-cycle virtual call until woken. Three wake
// sources exist:
//
//   - Wake, edge-triggered and idempotent: components wake a ticker
//     whenever they hand it new work (packet enqueue, access completion).
//   - Slot wakes: Quiescent may call ParkUntil to be woken at a cycle
//     fewer than 256 cycles out, and a producer handing a parked ticker
//     work it cannot act on yet calls WakeBy to arm such a wake instead of
//     waking it now. The wake is the ticker's bit in the ring slot of that
//     cycle (a timing wheel in Varghese and Lauck's sense); Step ORs the
//     due slot into the active set before events fire. Arming a wake costs
//     one bit and no sequence number, so a router can park for the few
//     cycles its oldest packet spends in the pipeline.
//   - WakeAt, a wake timer event for any delay. It bumps the schedule
//     sequence, so a ticker that parks on it is digested differently from
//     one that stays active; a slot wake has no such effect.
//
// A wake during the cycle's event phase — or from an earlier ticker in the
// same cycle — means the woken ticker still ticks in that same cycle,
// exactly as it would have under always-tick semantics. A parked ticker is,
// by its own contract, one whose Tick would have been a no-op until one of
// its wake sources fires, so simulation output is byte-identical to ticking
// everything every cycle; SetAlwaysTick(true) restores the exhaustive
// behavior for differential testing.
//
// When every ticker is parked and no slot wake is pending, Run and
// RunUntil fast-forward the clock to the next scheduled event instead of
// stepping through cycles in which nothing can happen. A pending slot wake
// counts as activity there and for the hang watchdog.
//
// # Tick order and the end-of-cycle stage
//
// A cycle has three phases. First, the cycle's ring slot fires: its wakes
// reactivate their tickers, then its due events fire in schedule order.
// Second, the tick phase: active tickers tick in registration order, found
// by walking a dense active bitmap so parked tickers cost nothing. Third,
// the end-of-cycle stage: OnCycleEnd hooks run in registration order (the
// network's link hand-offs, fault drops and in-network deliveries), then
// the Defer queue drains in append order. Work a ticker schedules with
// Defer therefore gets its schedule sequence number after the cycle's
// drop handling, and the state digest, which folds that sequence counter
// and every ticker's activation flag, depends on this order. A
// slot-parked ticker is digested as active: its wake targets a cycle no
// later than the work it waits on could complete, so it still holds that
// work. See DESIGN.md's tick-order section.
package sim

import (
	"math"
	"math/bits"
)

// Ticker is implemented by components that need to perform work every cycle,
// such as routers and network interfaces.
type Ticker interface {
	Tick(now int64)
}

// Parker is optionally implemented by tickers that can report quiescence.
// After ticking a Parker that reports Quiescent, the kernel parks it: the
// ticker is skipped every cycle until Kernel.Wake, a slot wake armed with
// ParkUntil or WakeBy, or a WakeAt timer reactivates it. A Parker must only
// report quiescence when its Tick would be a no-op for every cycle until
// one of its wake sources fires, so that parking never changes simulation
// output. Quiescent may have benign side effects: scheduling its own future
// wake with WakeAt, or arming one with ParkUntil and reporting quiescence
// only when that returns true.
//
// A ticker with a slot wake pending, armed by its own Quiescent or by a
// producer's WakeBy, promises more: it holds work that cannot complete
// before the armed cycle, so it still holds work when the wake fires,
// whatever else wakes it meanwhile. The state digest relies on this when
// it folds such a ticker as active.
type Parker interface {
	Ticker
	Quiescent() bool
}

// TickerID identifies a registered ticker; Register returns it and Wake and
// WakeAt take it. IDs are dense indexes in registration order.
type TickerID int

// event is a delayed callback or a parked-ticker wake timer in the
// kernel's calendar ring. A callback runs call(n, arg); a wake timer has
// call == nil and n holding the ticker's id. Carrying the callback's
// operands beside a static function (or a method value bound once) is what
// keeps scheduling allocation-free: a closure capturing them would be a
// heap object per event. Schedule's closures ride in arg, behind the
// runFunc thunk.
type event struct {
	at   int64
	seq  uint64
	call func(int, any)
	n    int
	arg  any
}

// runFunc is the thunk Schedule and Defer store their func() behind. A
// func value is pointer-shaped, so boxing it in arg does not allocate.
func runFunc(_ int, arg any) { arg.(func())() }

// before reports schedule order: by fire cycle, then schedule sequence.
// seq is unique, so (at, seq) is a total order.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// calSlots is the calendar ring's size: one bucket and one wake slot per
// cycle of a lap. It must be a power of two and a multiple of 64.
const calSlots = 256

// slotBits is a bitmap with one bit per ring slot.
type slotBits [calSlots / 64]uint64

func (b *slotBits) set(s int)      { b[s>>6] |= 1 << (uint(s) & 63) }
func (b *slotBits) clear(s int)    { b[s>>6] &^= 1 << (uint(s) & 63) }
func (b *slotBits) has(s int) bool { return b[s>>6]&(1<<(uint(s)&63)) != 0 }
func (b *slotBits) any() bool      { return *b != slotBits{} }

// next returns the least distance in [d, calSlots) from slot start to a
// set bit, going round the ring, or -1 when there is none.
func (b *slotBits) next(start, d int) int {
	for d < calSlots {
		s := (start + d) & (calSlots - 1)
		if word := b[s>>6] >> (uint(s) & 63); word != 0 {
			if d += bits.TrailingZeros64(word); d < calSlots {
				return d
			}
			return -1
		}
		d += 64 - s&63
	}
	return -1
}

// calNode is one event in the calendar's node slab; next links the
// bucket's list in append order, or the free list.
type calNode struct {
	e    event
	next int32
}

// calendar is the kernel's timeline: every pending event and every slot
// wake. Bucket s lists the events due at cycles congruent to s modulo
// calSlots in append order, threaded through a slab of nodes that freed
// nodes return to; events has bit s set exactly when bucket s is
// non-empty. Slot s's wake bitmap is laid out like Kernel.active, word w
// at wakes[w*calSlots+s], so one flat slice grows by a word per 64
// tickers; woken has bit s set exactly when that bitmap is non-zero. Every
// armed wake targets a cycle in (now, now+calSlots), so a slot's wakes
// are all for the slot's next cycle.
type calendar struct {
	nodes      []calNode
	free       int32 // head of the free-node list, -1 when empty
	head, tail [calSlots]int32
	events     slotBits
	wakes      []uint64
	woken      slotBits
}

func (c *calendar) init() {
	c.free = -1
	for i := range c.head {
		c.head[i], c.tail[i] = -1, -1
	}
}

// add appends e to its cycle's bucket.
func (c *calendar) add(e event) {
	i := c.free
	if i >= 0 {
		c.free = c.nodes[i].next
		c.nodes[i] = calNode{e: e, next: -1}
	} else {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, calNode{e: e, next: -1})
	}
	s := int(e.at & (calSlots - 1))
	if t := c.tail[s]; t >= 0 {
		c.nodes[t].next = i
	} else {
		c.head[s] = i
		c.events.set(s)
	}
	c.tail[s] = i
}

// next returns the cycle of the earliest pending event, or false when
// none is pending. Walking the non-empty buckets from cycle now+1, the
// first to hold an event of its own cycle holds the earliest; buckets
// passed on the way hold only later laps, which the result must still
// beat.
func (c *calendar) next(now int64) (int64, bool) {
	start := int((now + 1) & (calSlots - 1))
	best := int64(math.MaxInt64)
	for d := c.events.next(start, 0); d >= 0; d = c.events.next(start, d+1) {
		at := now + 1 + int64(d)
		for i := c.head[(start+d)&(calSlots-1)]; i >= 0; i = c.nodes[i].next {
			if e := c.nodes[i].e.at; e == at {
				return at, true
			} else if e < best {
				best = e
			}
		}
	}
	return best, best != math.MaxInt64
}

// each calls fn on every pending event.
func (c *calendar) each(fn func(event)) {
	for s := range c.head {
		for i := c.head[s]; i >= 0; i = c.nodes[i].next {
			fn(c.nodes[i].e)
		}
	}
}

// tickerSlot is one registered ticker. Its activation state is the
// ticker's bit in Kernel.active.
type tickerSlot struct {
	t       Ticker
	parker  Parker // non-nil when t implements Parker
	counted bool   // included in ShardStats (see CountTicks)
}

// deferredCall is one entry of the end-of-cycle Defer queue: a callback
// with its operands, as on an event.
type deferredCall struct {
	delay int64
	call  func(int, any)
	n     int
	arg   any
}

// Kernel is the cycle-driven simulation engine. The zero value is not ready
// for use; construct with NewKernel.
type Kernel struct {
	now     int64
	seq     uint64
	slots   []tickerSlot
	pending int // scheduled callbacks (call events) not yet fired

	// cal holds every pending event and slot wake.
	cal calendar

	rng        *RNG
	alwaysTick bool

	// active is the activation bitmap: bit id is set exactly when ticker
	// id is active, so the tick phase walks set bits instead of scanning
	// every slot. nActive counts the set bits.
	active  []uint64
	nActive int

	// inTick is set during the tick phase; Defer consults it. endFns and
	// deferred are the end-of-cycle stage's hooks and queue.
	inTick   bool
	endFns   []func()
	deferred []deferredCall

	stats ShardStats

	// Hang watchdog (SetWatchdog). fired counts events ever fired — the
	// kernel's own progress signal — and watchFn adds the caller's
	// domain progress (e.g. packets delivered). When the combined count
	// is unchanged across a watchW-cycle window while tickers are still
	// active, the system is livelocked and hung latches.
	watchW    int64
	watchFn   func() int64
	watchLast int64
	watchAt   int64
	fired     int64
	hung      bool
}

// NewKernel returns a kernel whose random number generator is seeded with
// seed. Two kernels built with the same seed and the same component
// registration order produce bit-identical simulations.
func NewKernel(seed uint64) *Kernel {
	k := &Kernel{rng: NewRNG(seed), stats: ShardStats{Width: 1}}
	k.cal.init()
	return k
}

// Now returns the current cycle.
func (k *Kernel) Now() int64 { return k.now }

// RNG returns the kernel's deterministic random number generator.
func (k *Kernel) RNG() *RNG { return k.rng }

// Register adds t to the set of components ticked every cycle and returns
// its TickerID for Wake/WakeAt. Tickers start active and must all be
// registered before the first Step.
func (k *Kernel) Register(t Ticker) TickerID {
	s := tickerSlot{t: t}
	if p, ok := t.(Parker); ok {
		s.parker = p
	}
	id := TickerID(len(k.slots))
	k.slots = append(k.slots, s)
	if int(id)>>6 >= len(k.active) {
		k.active = append(k.active, 0)
		k.cal.wakes = append(k.cal.wakes, make([]uint64, calSlots)...)
	}
	k.Wake(id)
	return id
}

// CountTicks includes ticker id in the tick accounting ShardStats reports.
// network.Build counts its routers, so BusyCycles and ActiveSum measure
// router work.
func (k *Kernel) CountTicks(id TickerID) { k.slots[id].counted = true }

// isActive reports whether ticker id is active.
func (k *Kernel) isActive(id TickerID) bool {
	return k.active[id>>6]&(1<<(uint(id)&63)) != 0
}

// Wake reactivates a parked ticker. Waking an active ticker is a no-op, so
// producers call it unconditionally when handing a component new work. A
// ticker woken during the current cycle's event phase, or by an
// earlier-registered ticker in the same cycle, ticks in that same cycle.
func (k *Kernel) Wake(id TickerID) {
	if !k.isActive(id) {
		k.active[id>>6] |= 1 << (uint(id) & 63)
		k.nActive++
	}
}

// ParkUntil arms a slot wake for ticker id at the start of cycle at and
// reports whether it did. It arms one only when at is 1 to calSlots-1
// cycles from now; otherwise it returns false and the caller should stay
// active rather than fall back to WakeAt, whose event and sequence bump
// would change the state digest. Quiescent calls it and reports
// quiescence when it returns true; the wake then reactivates the ticker at
// cycle at, before that cycle's events fire. A slot wake is not a pending
// event (Pending ignores it), but Run, RunUntil and the watchdog treat it
// as activity.
func (k *Kernel) ParkUntil(at int64, id TickerID) bool {
	if d := at - k.now; d < 1 || d >= calSlots {
		return false
	}
	s := int(at & (calSlots - 1))
	k.cal.wakes[int(id>>6)*calSlots+s] |= 1 << (uint(id) & 63)
	k.cal.woken.set(s)
	return true
}

// WakeBy hands ticker id work it cannot act on before cycle at. An active
// ticker is left alone: it sees the work at its next tick. A parked one
// gets a slot wake for at, so it sleeps through the cycles in which its
// Tick would be a no-op; when at is not 1 to calSlots-1 cycles out it is
// woken now, exactly as by Wake. The work must stay with the ticker until
// at, which is the promise a slot-parked ticker makes (see Parker).
func (k *Kernel) WakeBy(at int64, id TickerID) {
	if !k.isActive(id) && !k.ParkUntil(at, id) {
		k.Wake(id)
	}
}

// fireWakes moves the current cycle's slot wakes into the active set.
func (k *Kernel) fireWakes() {
	c := &k.cal
	s := int(k.now & (calSlots - 1))
	if !c.woken.has(s) {
		return
	}
	c.woken.clear(s)
	for w := range k.active {
		if due := c.wakes[w*calSlots+s]; due != 0 {
			k.nActive += bits.OnesCount64(due &^ k.active[w])
			k.active[w] |= due
			c.wakes[w*calSlots+s] = 0
		}
	}
}

// WakeAt arranges for the ticker to be woken at the start of the cycle
// delay cycles from now (clamped to the next cycle, like Schedule) and
// returns the effective wake cycle. The timer does not count as a pending
// event: a wake timer carries no work of its own, so drain checks
// (Pending) ignore it.
func (k *Kernel) WakeAt(delay int64, id TickerID) int64 {
	if delay < 1 {
		delay = 1
	}
	k.seq++
	k.cal.add(event{at: k.now + delay, seq: k.seq, n: int(id)})
	return k.now + delay
}

// SetAlwaysTick toggles the active-set optimization off (true) or on
// (false). With always-tick on, every registered ticker ticks every cycle —
// the exhaustive semantics the active-set mode must be byte-identical to —
// and Quiescent is never consulted. Enabling it also wakes every parked
// ticker.
func (k *Kernel) SetAlwaysTick(on bool) {
	k.alwaysTick = on
	if on {
		for i := range k.slots {
			k.Wake(TickerID(i))
		}
	}
}

// Schedule arranges for fn to run at the start of the cycle delay cycles
// from now and returns the effective fire cycle. A delay of zero or less is
// clamped to one — fn runs at the start of the next cycle — because events
// can never fire within the cycle that scheduled them (see the package
// comment's next-cycle guarantee); the returned cycle makes the clamp
// observable to callers instead of silent.
func (k *Kernel) Schedule(delay int64, fn func()) int64 {
	return k.ScheduleCall(delay, runFunc, 0, fn)
}

// ScheduleCall is Schedule for a callback that takes its operands: call(n,
// arg) runs at the start of the cycle delay cycles from now. call should
// be a static function or a method value bound once, not a closure built
// per call, so that scheduling allocates nothing; a pointer arg does not
// allocate either. It is the kernel's one scheduling path: Schedule is
// ScheduleCall with fn in arg behind a thunk.
func (k *Kernel) ScheduleCall(delay int64, call func(int, any), n int, arg any) int64 {
	if delay < 1 {
		delay = 1
	}
	k.seq++
	k.cal.add(event{at: k.now + delay, seq: k.seq, call: call, n: n, arg: arg})
	k.pending++
	return k.now + delay
}

// Defer is Schedule for code that runs both from events and from ticks.
// Outside the tick phase it is exactly Schedule(delay, fn). Inside it, the
// call is queued for the end-of-cycle stage: there, a delay >= 1 goes to
// Schedule and a delay <= 0 runs fn directly, still in this cycle.
func (k *Kernel) Defer(delay int64, fn func()) {
	k.DeferCall(delay, runFunc, 0, fn)
}

// DeferCall is Defer for a callback that takes its operands, as
// ScheduleCall is to Schedule.
func (k *Kernel) DeferCall(delay int64, call func(int, any), n int, arg any) {
	if !k.inTick {
		k.ScheduleCall(delay, call, n, arg)
		return
	}
	k.deferred = append(k.deferred, deferredCall{delay: delay, call: call, n: n, arg: arg})
}

// OnCycleEnd registers a hook run at the end of every cycle, after the
// tick phase and before the Defer queue drains. Hooks run in registration
// order; the network uses one to apply its staged link hand-offs, drops
// and deliveries.
func (k *Kernel) OnCycleEnd(fn func()) {
	k.endFns = append(k.endFns, fn)
}

// Step advances the clock one cycle: the cycle counter increments, the
// cycle's slot wakes reactivate their tickers, its events fire in schedule
// order (wake timers reactivate their tickers), active tickers tick in
// registration order, then the end-of-cycle stage runs the OnCycleEnd
// hooks and drains the Defer queue. Active Parkers reporting quiescence
// are parked as they tick.
func (k *Kernel) Step() {
	k.now++
	k.fireWakes()
	k.fireBucket()
	k.inTick = true
	k.tick()
	k.inTick = false
	for _, fn := range k.endFns {
		fn()
	}
	for i, d := range k.deferred {
		if d.delay <= 0 {
			d.call(d.n, d.arg)
		} else {
			k.ScheduleCall(d.delay, d.call, d.n, d.arg)
		}
		k.deferred[i] = deferredCall{} // drop the callback's references
	}
	k.deferred = k.deferred[:0]
	if k.watchW > 0 && k.now >= k.watchAt {
		p := k.fired
		if k.watchFn != nil {
			p += k.watchFn()
		}
		if p == k.watchLast && (k.nActive > 0 || k.cal.woken.any()) {
			k.hung = true
		}
		k.watchLast = p
		k.watchAt = k.now + k.watchW
	}
}

// fireBucket fires the events of the current cycle's bucket in append
// order, which is schedule order, unlinking each before it fires.
// Later-lap events stay in place. Whatever a fired event schedules is at
// least one cycle out, so it lands in another bucket or, a lap or more
// out, behind them in this one, where the walk passes it by.
func (k *Kernel) fireBucket() {
	c := &k.cal
	s := int(k.now & (calSlots - 1))
	prev := int32(-1)
	for i := c.head[s]; i >= 0; {
		nd := &c.nodes[i]
		next := nd.next
		if nd.e.at != k.now {
			prev, i = i, next
			continue
		}
		e := nd.e
		if prev < 0 {
			c.head[s] = next
		} else {
			c.nodes[prev].next = next
		}
		if next < 0 {
			c.tail[s] = prev
		}
		*nd = calNode{next: c.free} // drop the callback reference
		c.free = i
		k.fire(e) // may grow c.nodes: nd is not used past here
		i = next
	}
	if c.head[s] < 0 {
		c.events.clear(s)
	}
}

// fire runs a due event: a callback, or a wake timer's Wake.
func (k *Kernel) fire(e event) {
	if e.call != nil {
		k.pending--
		k.fired++
		e.call(e.n, e.arg)
	} else {
		k.Wake(TickerID(e.n))
	}
}

// tick is the tick phase: tick every active ticker in ascending ID order,
// parking quiescent Parkers.
//
// The walk follows the active bitmap word by word, re-reading each word as
// bits are consumed, so a ticker woken mid-phase by an earlier ticker (a
// producer feeding a consumer registered after it) ticks in this same
// cycle. A wake to an ID the walk has already passed takes effect next
// cycle.
func (k *Kernel) tick() {
	counted := int64(0)
	for w := range k.active {
		var done uint64
		for {
			word := k.active[w] &^ done
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			// Mark every position up to b consumed, not just b: a wake
			// landing on an earlier ID after this waits for the next
			// cycle.
			done |= ^uint64(0) >> uint(63-b)
			s := &k.slots[w<<6+b]
			s.t.Tick(k.now)
			if s.counted {
				counted++
			}
			if !k.alwaysTick && s.parker != nil && s.parker.Quiescent() {
				k.active[w] &^= 1 << uint(b)
				k.nActive--
			}
		}
	}
	if counted > 0 {
		k.stats.BusyCycles++
		k.stats.ActiveSum += counted
	}
}

// ShardStats is the kernel's tick accounting. All quantities are
// observational.
type ShardStats struct {
	// BusyCycles counts cycles in which at least one counted ticker (see
	// CountTicks) ticked; ActiveSum is the number of counted ticks, so
	// ActiveSum/BusyCycles is the mean number of busy routers.
	BusyCycles int64
	ActiveSum  int64
	// ParallelCycles and BarrierWaitNs are always 0: the kernel ticks
	// serially.
	//
	// Deprecated: kept so existing benchmark harnesses compile.
	ParallelCycles int64
	BarrierWaitNs  int64
	// Width is always 1.
	//
	// Deprecated: kept so existing benchmark harnesses compile.
	Width int
}

// ShardStats returns a snapshot of the kernel's tick accounting.
func (k *Kernel) ShardStats() ShardStats { return k.stats }

// Shards returns 1.
//
// Deprecated: the kernel ticks serially; kept so existing benchmark
// harnesses compile.
func (k *Kernel) Shards() int { return 1 }

// SetWatchdog arms the hang watchdog: if, over any window cycles, no event
// fires and the caller-supplied progress counter does not advance while at
// least one ticker remains active or slot-parked, the kernel declares the
// simulation hung — Run and RunUntil stop stepping and Hung reports true.
// Tickers that stay active, or keep parking on slot wakes, without making
// progress is the livelock signature; a fully parked system is
// legitimately idle (it fast-forwards) and never trips. progress may be
// nil; window <= 0 disarms. The watchdog is pure observation: it never
// changes scheduling, so an armed run that does not hang is byte-identical
// to an unarmed one.
func (k *Kernel) SetWatchdog(window int64, progress func() int64) {
	k.watchW = window
	k.watchFn = progress
	k.watchLast = -1
	k.watchAt = k.now + window
	k.hung = false
}

// Hung reports whether the watchdog has tripped.
func (k *Kernel) Hung() bool { return k.hung }

// skipIdle fast-forwards the clock when every ticker is parked and no
// slot wake is pending: nothing can change state until the next scheduled
// event (or timer), so jump to the cycle before it and let Step fire it.
// When nothing is scheduled before limit the clock lands on limit itself:
// the Steps skipped on the way, that one included, would have changed
// nothing, so a run split at limit steps exactly the cycles an unsplit run
// steps. The clock never passes limit. Reports whether it reached limit.
func (k *Kernel) skipIdle(limit int64) bool {
	if k.nActive != 0 || k.cal.woken.any() || k.alwaysTick {
		return false
	}
	target := limit
	if at, ok := k.cal.next(k.now); ok && at-1 < target {
		target = at - 1
	}
	if target > k.now {
		k.now = target
	}
	return k.now >= limit
}

// Run steps the kernel until the clock reaches cycle end (or the watchdog
// trips), fast-forwarding through stretches where every ticker is parked.
func (k *Kernel) Run(end int64) {
	for k.now < end && !k.hung {
		if !k.skipIdle(end) {
			k.Step()
		}
	}
}

// RunUntil steps the kernel until done reports true or maxCycles cycles have
// elapsed, and returns whether done was reached. Stretches where every
// ticker is parked are fast-forwarded: done is re-evaluated only when
// something could have changed it. The clock stops at now+maxCycles
// exactly, so callers can pause a run there and resume it without changing
// which cycles are stepped. A watchdog trip stops stepping early — by the
// watchdog's own criterion no further progress was coming.
func (k *Kernel) RunUntil(done func() bool, maxCycles int64) bool {
	limit := k.now + maxCycles
	for k.now < limit {
		if done() {
			return true
		}
		if k.hung {
			return false
		}
		if !k.skipIdle(limit) {
			k.Step()
		}
	}
	return done()
}

// Pending reports the number of unfired scheduled callbacks, used by drain
// checks at the end of a simulation. Parked-ticker wake timers are not
// counted: they carry no work.
func (k *Kernel) Pending() int { return k.pending }
