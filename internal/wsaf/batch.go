package wsaf

import (
	"unsafe"

	"instameasure/internal/packet"
	"instameasure/internal/prefetch"
)

// Prefetching is the paper's DRAM-latency answer in software. A 2^20-entry
// WSAF cannot fit in cache, so the first probe of each flow is a compulsory
// miss and a plain Accumulate loop serializes those misses: one full memory
// round trip per packet. The engine's burst loop therefore runs the table
// in two passes — PrefetchHashed for every passthrough of the burst, then
// AccumulateHashed for each in packet order — turning the serial miss
// chain into overlapped in-flight loads. Table.Each walks its live
// entries the same way, a bounded window behind its own prefetches.
//
// prefetchWindow is sized for commodity cores: 32 entries touch ≤64 cache
// lines (two per entry), comfortably inside a 32 KiB L1D while still far
// past the 10–16 outstanding misses the hardware can overlap.
const prefetchWindow = 32

// Op is one Accumulate replayed outside the engine: a precomputed flow
// hash, the key, the regulator-estimated increments and the timestamp.
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
