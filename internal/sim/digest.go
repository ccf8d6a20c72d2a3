package sim

import "sort"

// Digest is a streaming 64-bit state hasher (FNV-1a core, splitmix64
// finalizer) that components fold their simulation state into. Equal
// digests at a cycle mean two runs reached the same live state, so pinned
// digests catch any drift in simulation semantics, and comparing a paused
// run's digest with a one-shot run's proves that pausing is invisible.
//
// Folding must be observation-only: a component's DigestState method may
// not mutate any state the simulation reads (no LRU touches, no counter
// bumps), so that a run that takes digests is byte-identical to one that
// does not.
type Digest struct {
	h uint64
}

// NewDigest returns a digest in its initial state.
func NewDigest() *Digest {
	return &Digest{h: 1469598103934665603}
}

func (d *Digest) byte(b byte) {
	d.h ^= uint64(b)
	d.h *= 1099511628211
}

// U64 folds a 64-bit word.
func (d *Digest) U64(v uint64) {
	for i := 0; i < 64; i += 8 {
		d.byte(byte(v >> i))
	}
}

// I64 folds a signed 64-bit word.
func (d *Digest) I64(v int64) { d.U64(uint64(v)) }

// Int folds an int.
func (d *Digest) Int(v int) { d.U64(uint64(int64(v))) }

// Bool folds a boolean.
func (d *Digest) Bool(b bool) {
	if b {
		d.byte(1)
	} else {
		d.byte(0)
	}
}

// Str folds a length-prefixed string.
func (d *Digest) Str(s string) {
	d.Int(len(s))
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
}

// Sum returns the finalized digest. It does not consume the digest:
// further folds may follow and Sum may be called again.
func (d *Digest) Sum() uint64 {
	x := d.h
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// State exposes the RNG's internal word for state digests, making the
// generator's position part of the digested state.
func (r *RNG) State() uint64 { return r.state }

// DigestState folds the kernel's core state into d: the clock, the
// scheduling sequence, the RNG position, per-ticker activation flags and
// the pending event timeline. A ticker's flag is its logical activation:
// set when it is active or has a wheel wake pending. A wheel-parked ticker
// still holds work that cannot complete before its wake (the Parker
// contract), so a ticker that parked only when it held no work would be
// active in its place; folding the two alike keeps the digest independent
// of wheel parking. Event callbacks are closures and cannot be
// serialized, so the timeline is represented by each event's observable
// coordinates — fire cycle, schedule order, and whether it is a callback or
// a wake timer (with its target) — which, under deterministic replay,
// identify the closure population exactly. The heap's internal element
// order is an implementation detail, so events are folded in (at, seq)
// order.
func (k *Kernel) DigestState(d *Digest) {
	d.I64(k.now)
	d.U64(k.seq)
	d.Int(k.pending)
	d.U64(k.rng.State())
	d.Int(len(k.slots))
	for i := range k.slots {
		d.Bool(k.isActive(TickerID(i)) || k.wheelPending(TickerID(i)))
	}
	evs := make([]event, len(k.events))
	copy(evs, k.events)
	sort.Slice(evs, func(i, j int) bool { return evs[i].before(evs[j]) })
	d.Int(len(evs))
	for _, e := range evs {
		d.I64(e.at)
		d.U64(e.seq)
		if e.fn != nil {
			d.Bool(true)
		} else {
			d.Bool(false)
			d.Int(int(e.wake))
		}
	}
}
