// Package flight extends the hotpath fixture with a mini recorder whose
// record seam — reached from the //im:hotpath root in hotpath/flightroot —
// exercises the flight-scoped hash bans next to the general contract, a
// helper that inherits hotness by propagation, and a cold snapshot path
// showing the same constructs are legal off the record path.
package flight

import (
	"fmt"
	"sync"

	"hotpath/flowhash"
)

// FlowKey mirrors the real packet.FlowKey shape: the Hash64/Hash32 ban is
// keyed on the receiver type name.
type FlowKey struct{ A, B uint64 }

// Hash64 re-derives the flow hash; calling it from the record path is the
// double-hash regression the flight scope exists to catch.
func (k FlowKey) Hash64(seed uint64) uint64 { return k.A ^ k.B ^ seed }

// Ring is the fixture recorder.
type Ring struct {
	mu   sync.Mutex
	byID map[uint64]uint64
	seen map[uint64]int
	pos  uint64
	sink uint64
}

// Record is the hot seam: the root in hotpath/flightroot calls it
// statically.
func (r *Ring) Record(k FlowKey, v uint64) {
	r.mu.Lock()                 // want `hot path: lock acquisition \(\(Mutex\)\.Lock\) in \(Ring\)\.Record \(hot via flightroot\.Record\)`
	h := flowhash.Sum64(v)      // want `hot path: hash call \(flowhash\.Sum64\) in \(Ring\)\.Record`
	h ^= k.Hash64(1)            // want `hot path: hash call \(\(FlowKey\)\.Hash64\) in \(Ring\)\.Record`
	r.byID[v] = h               // want `hot path: map access \(runtime key hash\) in \(Ring\)\.Record`
	delete(r.byID, v-1)         // want `hot path: map delete \(runtime key hash\) in \(Ring\)\.Record`
	msg := fmt.Sprintf("%d", v) // want `hot path: fmt call in \(Ring\)\.Record`
	for id := range r.byID {    // want `hot path: range over map \(runtime key hash\) in \(Ring\)\.Record`
		_ = id
	}
	r.note(v)
	r.pos = h
	r.sink = uint64(len(msg))
	r.mu.Unlock()
}

// note is hot by propagation: Record calls it statically, so the contract
// follows it down.
func (r *Ring) note(v uint64) {
	r.seen[v]++ // want `hot path: map access \(runtime key hash\) in \(Ring\)\.note \(hot via flightroot\.Record\)`
}

// Snapshot is cold — no hot root reaches it — so the same constructs are
// legal here: readers may lock, allocate, and range maps freely.
func (r *Ring) Snapshot() map[uint64]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[uint64]uint64, len(r.byID))
	for k, v := range r.byID {
		out[k] = v
	}
	return out
}
