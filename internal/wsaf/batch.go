package wsaf

import (
	"unsafe"

	"instameasure/internal/packet"
	"instameasure/internal/prefetch"
)

// Prefetching is the paper's DRAM-latency answer in software. A 2^20-slot
// WSAF cannot fit in cache, so the first probe of each flow is a compulsory
// miss and a plain Accumulate loop serializes those misses: one full memory
// round trip per packet. The engine's burst loop therefore runs the table
// in two passes — PrefetchHashed for every passthrough of the burst, then
// AccumulateHashed for each in packet order — turning the serial miss
// chain into overlapped in-flight loads. Table.Each needs no hints: the
// live entries are one dense array, read front to back.

// Op is one Accumulate replayed outside the engine: a precomputed flow
// hash, the key, the regulator-estimated increments and the timestamp.
type Op struct {
	Hash  uint64
	Key   packet.FlowKey
	Pkts  float64
	Bytes float64
	TS    int64
}

// PrefetchHashed hints the cache line of the slot word h's first probe
// reads. Advisory: dropping the hint changes nothing observable.
//
//im:hotpath
func (t *Table) PrefetchHashed(h uint64) { prefetch.T0(unsafe.Pointer(&t.slots[h&t.mask])) }

// IndexOf returns the index of e, a live-entry pointer AccumulateHashed
// returned, so a caller can find the entry again without probing. An
// entry keeps its index until Reset.
//
//im:hotpath
func (t *Table) IndexOf(e *Entry) int {
	return int((uintptr(unsafe.Pointer(e)) - uintptr(unsafe.Pointer(unsafe.SliceData(t.entries)))) / unsafe.Sizeof(*e))
}
