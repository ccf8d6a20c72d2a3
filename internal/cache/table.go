package cache

import "math/bits"

// table is an open-addressed hash table from set indices to slab slots:
// power-of-two size, linear probing, grown to twice its size before an
// insert would take it past half load, and backward-shift deletion, so it
// holds no tombstones and its size is bounded by the most keys it has held
// at once. The zero table is empty and allocates on the first insert.
type table struct {
	ents []entry
	n    int // keys held
}

// entry is 8 bytes: a set index is below numSets, which fits an int32.
type entry struct {
	key  uint32
	slot int32 // slab slot + 1; 0 marks an empty entry
}

// home is key's preferred position: the top log2(len(ents)) bits of key
// times 2^64/phi, which spreads the consecutive set indices the caches
// hold.
func (t *table) home(key uint32) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(len(t.ents)-1)))
}

// pos returns the position holding key, or the empty position that ends
// key's probe run if key is absent. The table must not be unallocated.
func (t *table) pos(key uint32) int {
	mask := len(t.ents) - 1
	i := t.home(key)
	for t.ents[i].slot != 0 && t.ents[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// find returns the position of key (-1 while the table is unallocated) for
// putAt and delAt, and key's slot, or noSlot if key is absent.
func (t *table) find(key uint32) (int, int32) {
	if len(t.ents) == 0 {
		return -1, noSlot
	}
	i := t.pos(key)
	return i, t.ents[i].slot - 1
}

// putAt maps key to slot, replacing any slot key had. i is what find
// returned for key, with no putAt or delAt since; an insert that would take
// the table past half load grows it and probes again.
func (t *table) putAt(i int, key uint32, slot int32) {
	if i < 0 || t.ents[i].slot == 0 {
		if 2*(t.n+1) > len(t.ents) {
			t.grow()
			i = t.pos(key)
		}
		t.n++
	}
	t.ents[i] = entry{key: key, slot: slot + 1}
}

// delAt removes the key at position i, which find returned for a present
// key with no putAt or delAt since. Each later entry of the probe run moves
// back into the hole unless its home lies cyclically after the hole, so
// every key stays reachable from its home without a tombstone.
func (t *table) delAt(i int) {
	t.n--
	mask := len(t.ents) - 1
	for j := (i + 1) & mask; t.ents[j].slot != 0; j = (j + 1) & mask {
		if (j-t.home(t.ents[j].key))&mask >= (j-i)&mask {
			t.ents[i] = t.ents[j]
			i = j
		}
	}
	t.ents[i] = entry{}
}

func (t *table) grow() {
	old := t.ents
	size := max(2*len(old), 8)
	t.ents = make([]entry, size)
	for _, e := range old {
		if e.slot != 0 {
			t.ents[t.pos(e.key)] = e
		}
	}
}
