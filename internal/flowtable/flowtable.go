// Package flowtable is the collection tier's one keyed table: a growable,
// open-addressed map from flow key to a caller-chosen value, in the shape
// of the WSAF (power-of-two slots, triangular probing, the flow hash
// threaded in by the caller, slot words over dense entries) minus eviction
// and TTL — the collector, the fleet aggregator and the store's queries
// keep every flow they are told about, so the table grows instead of
// displacing.
//
// Layout: a slot array of 8-byte words, each a 32-bit tag (the hash's high
// half) beside a 32-bit entry number, and a dense entry array in insertion
// order. A probe reads slot words only; an entry — and its 38-byte key —
// is touched when the tag already matches, so a miss costs no key compare
// and a walk (Each) is a sequential pass over live entries, never over
// empty slots. Entries carry their hash, so growth re-seats them without
// rehashing.
//
// Bulk callers work in bursts, the WSAF's two-pass idiom: hash up to Burst
// keys and Prefetch each home slot word, then Get or Upsert them in record
// order, so a burst's DRAM misses overlap instead of queueing (Join does
// the same for a lookup walk). Hints are advisory and order is kept, so a
// burst builds exactly the table one call at a time builds. Reset empties
// a table for reuse without giving up its arrays.
//
// Callers hash once per record with Hash and hand the value to every table
// the record touches. Hash is keyed by a seed drawn once per process from
// the OS entropy source: the collector is network-facing, and a predictable
// hash would let a crafted flood of keys share one probe chain
// (trace.GenerateCollisionFlood is the attack). A hash that arrived on the
// wire is never used — meters draw their own per-run seeds.
package flowtable

import (
	"unsafe"

	"instameasure/internal/flowhash"
	"instameasure/internal/packet"
	"instameasure/internal/prefetch"
)

var seed = flowhash.RandomSeed()

// Hash is the process-seeded flow hash every Table is addressed by.
func Hash(k *packet.FlowKey) uint64 { return k.Hash64(seed) }

// minSlots is the first slot array's size.
const minSlots = 16

// Burst is how far a bulk caller hints ahead of what it resolves: past the
// 10–16 misses a core overlaps, and few enough lines to still be in L1D
// when resolved.
const Burst = 32

// Table maps flow keys to values of type V. The zero value is an empty
// table ready for use. A Table is not safe for concurrent use.
type Table[V any] struct {
	// slots holds 0 for an empty slot, else tag<<32 | entry number + 1.
	// Its length is a power of two, at least twice len(entries).
	slots   []uint64
	entries []entry[V]
}

type entry[V any] struct {
	hash uint64
	key  packet.FlowKey
	val  V
}

// Reset empties the table and pre-sizes it for n flows, keeping its arrays
// wherever they are large enough.
func (t *Table[V]) Reset(n int) {
	if cap(t.entries) < n {
		t.entries = make([]entry[V], 0, n)
	}
	t.entries = t.entries[:0]
	size := minSlots
	for size < 2*n {
		size *= 2
	}
	t.reseat(size)
}

// Len is the number of flows held.
func (t *Table[V]) Len() int { return len(t.entries) }

// Prefetch hints the cache line of the slot word a probe for hash h reads
// first. Advisory: it changes nothing a later Get or Upsert returns.
func (t *Table[V]) Prefetch(h uint64) {
	if len(t.slots) > 0 {
		prefetch.T0(unsafe.Pointer(&t.slots[h&uint64(len(t.slots)-1)]))
	}
}

// Get returns the value stored for key, whose Hash is h, or nil. The
// pointer stays valid until the next Upsert.
func (t *Table[V]) Get(h uint64, key *packet.FlowKey) *V {
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i, step := h&mask, uint64(1); ; i, step = (i+step)&mask, step+1 {
		s := t.slots[i]
		if s == 0 {
			return nil
		}
		if s>>32 == h>>32 {
			if e := &t.entries[uint32(s)-1]; e.key == *key {
				return &e.val
			}
		}
	}
}

// Upsert returns the value stored for key, whose Hash is h, adding a zero
// value first when the key is new (fresh reports that). The pointer stays
// valid until the next Upsert.
func (t *Table[V]) Upsert(h uint64, key *packet.FlowKey) (v *V, fresh bool) {
	if 2*len(t.entries) >= len(t.slots) {
		t.reseat(max(minSlots, 2*len(t.slots)))
	}
	mask := uint64(len(t.slots) - 1)
	for i, step := h&mask, uint64(1); ; i, step = (i+step)&mask, step+1 {
		s := t.slots[i]
		if s == 0 {
			t.entries = append(t.entries, entry[V]{hash: h, key: *key})
			t.slots[i] = h>>32<<32 | uint64(len(t.entries))
			return &t.entries[len(t.entries)-1].val, true
		}
		if s>>32 == h>>32 {
			if e := &t.entries[uint32(s)-1]; e.key == *key {
				return &e.val, false
			}
		}
	}
}

// reseat empties the slot array at size words, reusing its backing array
// when that is large enough, and re-seats every entry by its stored hash.
// Triangular steps reach every slot of a power-of-two array, and the array
// is never more than half full, so each placement finds an empty slot.
func (t *Table[V]) reseat(size int) {
	if cap(t.slots) < size {
		t.slots = make([]uint64, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	mask := uint64(size - 1)
	for n := range t.entries {
		h := t.entries[n].hash
		i := h & mask
		for step := uint64(1); t.slots[i] != 0; step++ {
			i = (i + step) & mask
		}
		t.slots[i] = h>>32<<32 | uint64(n+1)
	}
}

// Each visits every flow in insertion order with its hash, key and value.
// fn may change the value; it must not Upsert into this table.
func (t *Table[V]) Each(fn func(h uint64, key *packet.FlowKey, v *V)) {
	for i := range t.entries {
		e := &t.entries[i]
		fn(e.hash, &e.key, &e.val)
	}
}

// Join visits every flow of a in insertion order with its value in a and
// its value in b (nil when b lacks it), each lookup Burst flows behind its
// Prefetch hint. fn must not Upsert into either table.
func Join[A, B any](a *Table[A], b *Table[B], fn func(key *packet.FlowKey, va *A, vb *B)) {
	for i := range a.entries {
		if j := i + Burst; j < len(a.entries) {
			b.Prefetch(a.entries[j].hash)
		}
		e := &a.entries[i]
		fn(&e.key, &e.val, b.Get(e.hash, &e.key))
	}
}
