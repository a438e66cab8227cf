package wsaf

import (
	"unsafe"

	"instameasure/internal/packet"
	"instameasure/internal/prefetch"
)

// The batched table walk below is the paper's DRAM-latency answer in
// software. A 2^20-entry WSAF cannot fit in cache, so the first probe of
// each flow is a compulsory miss and a scalar Accumulate loop serializes
// those misses: one full memory round trip per packet. Processing a burst
// in two passes — first touch every packet's first probe slot with a
// prefetch hint, then run the ordinary probe logic — turns the serial miss
// chain into overlapped in-flight loads. The window below bounds how many
// lines are in flight at once so early prefetches are not evicted before
// pass two reaches them.
//
// prefetchWindow is sized for commodity cores: 32 ops touch ≤64 cache
// lines (two per entry), comfortably inside a 32 KiB L1D while still far
// past the 10–16 outstanding misses the hardware can overlap.
const prefetchWindow = 32

// Op is one batched Accumulate: the packet's precomputed flow hash, its
// key, the regulator-estimated increments, and the trace timestamp.
type Op struct {
	Hash  uint64
	Key   packet.FlowKey
	Pkts  float64
	Bytes float64
	TS    int64
}

// PrefetchHashed hints the cache lines of h's first probe slot. Entries
// are larger than one cache line, so both the first and last byte of the
// slot are touched (interior pointers only — never past the entry).
// Advisory: dropping the hint changes nothing observable.
//
//im:hotpath
func (t *Table) PrefetchHashed(h uint64) { t.prefetchSlot(int(h & t.mask)) }

//im:hotpath
func (t *Table) prefetchSlot(slot int) {
	e := &t.entries[slot]
	prefetch.T0(unsafe.Pointer(e))
	prefetch.T0(unsafe.Pointer(&e.chance))
}

// AccumulateBatch applies ops in order with state transitions identical to
// len(ops) sequential AccumulateHashed calls: same outcomes, same stats,
// same final entries (TestAccumulateBatchMatchesScalar enforces this).
// outcomes[i] receives op i's result; the slice must be at least as long
// as ops. Per-op entry pointers are not surfaced — a later op in the batch
// may relocate them — so callers that need the live entry after each
// update (the engine does, for pass events) should instead issue
// PrefetchHashed themselves and call AccumulateHashed per op.
//
//im:hotpath
func (t *Table) AccumulateBatch(ops []Op, outcomes []Outcome) {
	outcomes = outcomes[:len(ops)]
	for base := 0; base < len(ops); base += prefetchWindow {
		end := min(base+prefetchWindow, len(ops))
		for i := base; i < end; i++ {
			t.PrefetchHashed(ops[i].Hash)
		}
		for i := base; i < end; i++ {
			op := &ops[i]
			outcomes[i], _ = t.AccumulateHashed(op.Hash, op.Key, op.Pkts, op.Bytes, op.TS)
		}
	}
}

// LookupBatch is the read-side twin: out[i], ok[i] receive the result of
// LookupHashed(hashes[i], keys[i], now). All four slices must be at least
// as long as hashes.
//
//im:hotpath
func (t *Table) LookupBatch(hashes []uint64, keys []packet.FlowKey, now int64, out []Entry, ok []bool) {
	keys = keys[:len(hashes)]
	out = out[:len(hashes)]
	ok = ok[:len(hashes)]
	for base := 0; base < len(hashes); base += prefetchWindow {
		end := min(base+prefetchWindow, len(hashes))
		for i := base; i < end; i++ {
			t.PrefetchHashed(hashes[i])
		}
		for i := base; i < end; i++ {
			out[i], ok[i] = t.LookupHashed(hashes[i], keys[i], now)
		}
	}
}
