// Package atomicfield is the golden fixture for the atomicfield
// analyzer: a struct with mixed atomic/plain access, a 64-bit atomic
// field misaligned under 32-bit layout, a padded cell that misses the
// cache-line multiple, and correct counterparts for each.
package atomicfield

import "sync/atomic"

// counters mixes atomic and plain access to hits.
type counters struct {
	hits  uint64
	total uint64
}

func (c *counters) bump() {
	atomic.AddUint64(&c.hits, 1)
	atomic.AddUint64(&c.total, 1)
}

func (c *counters) snapshot() uint64 {
	return c.hits + // want `plain access to field hits, which is accessed with sync/atomic\.AddUint64 elsewhere`
		atomic.LoadUint64(&c.total)
}

// misaligned places a 64-bit atomic field at offset 4 under gc/386
// layout, where sync/atomic's 8-byte alignment contract breaks.
type misaligned struct {
	ready uint32
	n     int64 // want `field n is used with 64-bit sync/atomic ops but sits at offset 4 under 32-bit layout`
}

func (m *misaligned) add() {
	atomic.AddInt64(&m.n, 1)
	atomic.AddUint32(&m.ready, 1)
}

// aligned leads with the 64-bit field: offset 0 everywhere.
type aligned struct {
	n     int64
	ready uint32
}

func (a *aligned) add() {
	atomic.AddInt64(&a.n, 1)
}

// badCell pads its counter but misses the cache-line multiple (8 + 48 =
// 56 bytes).
type badCell struct { // want `padded atomic cell badCell is 56 bytes, not a multiple of the 64-byte cache line`
	v atomic.Uint64
	_ [48]byte
}

func (c *badCell) inc() { c.v.Add(1) }

// goodCell tiles cache lines exactly: 8 + 56 = 64 bytes. Wrapper-typed
// fields need no alignment check (they self-align since Go 1.19) and
// method access through them is not mixed access.
type goodCell struct {
	v atomic.Uint64
	_ [56]byte
}

func (c *goodCell) inc() { c.v.Add(1) }

// slot is generic: a field of type-parameter type has no size, so the
// struct has no layout to check until it is instantiated. The layout pass
// must step over it rather than ask for offsets.
type slot[V any] struct {
	ready uint32
	val   V
}

func (s *slot[V]) get() V { return s.val }
