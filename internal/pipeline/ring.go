package pipeline

import (
	"math/bits"
	"sync/atomic"

	"instameasure/internal/core"
)

// ring is a bounded single-producer/single-consumer queue of records —
// the lock-free lane worker A uses to hand worker B the packets A read but
// B's shard owns. A record (core.Hashed) is the packet's hash, length and
// index in the run's packet base, 16 bytes: the packet itself stays where A
// read it, and B's engine reads it there, so the flow hash crosses the
// ring and the packet never does. The Lamport layout: the producer owns
// tail, the consumer owns head, each side reads the other's index with one
// atomic load per burst and publishes its own with one atomic store, so a
// full-burst exchange costs two atomics instead of a channel's
// mutex+scheduler round trip. Index fields sit on their own cache lines;
// without the padding every push would false-share with every pop
// (TestRingPadding checks the layout). The consumer works on the records
// in place (peek) and advances head only once its engine has processed
// them (release), so head is also the release signal for the packets the
// records index: a producer reusing its packet memory waits for it. The
// slots are plain memory, so a cursor published before its slot is
// filled, or released before it is read, is a data race
// TestRingConcurrentStress reports under -race.
//
// Close-while-full semantics: close only publishes the closed flag — the
// consumer drains whatever is buffered first and drained() turns true
// only once the ring is both closed and empty, so no packet is lost at
// shutdown.
type ring struct {
	buf  []core.Hashed
	mask uint64
	_    [32]byte // pad the header (24-byte slice + 8-byte mask) to one cache line

	head atomic.Uint64 // consumer cursor: next slot to pop
	_    [56]byte

	tail atomic.Uint64 // producer cursor: next slot to fill
	_    [56]byte

	closed atomic.Uint32
	_      [60]byte
}

// newRing builds a ring holding at least capacity elements (rounded up to
// a power of two).
func newRing(capacity int) *ring {
	if capacity < 2 {
		capacity = 2
	}
	n := 1 << bits.Len(uint(capacity-1))
	return &ring{buf: make([]core.Hashed, n), mask: uint64(n - 1)}
}

// pushBatch appends up to len(src) elements and returns how many fit; it
// never blocks. One atomic load of the consumer cursor and one atomic
// publish of the producer cursor per call, regardless of burst size.
// Producer side only.
//
//im:hotpath
func (r *ring) pushBatch(src []core.Hashed) int {
	t := r.tail.Load() // own cursor: plain value, atomic for the gauge side
	free := uint64(len(r.buf)) - (t - r.head.Load())
	n := uint64(len(src))
	if n > free {
		n = free
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(t+i)&r.mask] = src[i]
	}
	r.tail.Store(t + n)
	return int(n)
}

// peek returns up to limit of the oldest buffered records in place: a view
// of the ring's own slots, one contiguous run (a run that wraps comes back
// over two calls). The slots stay the consumer's until release hands them
// back. Consumer side only.
//
//im:hotpath
func (r *ring) peek(limit int) []core.Hashed {
	h := r.head.Load() // own cursor
	start := h & r.mask
	n := min(r.tail.Load()-h, uint64(len(r.buf))-start, uint64(limit))
	return r.buf[start : start+n]
}

// release hands the n oldest records back to the producer — their slots,
// and the packets they index. Consumer side only.
//
//im:hotpath
func (r *ring) release(n int) { r.head.Store(r.head.Load() + uint64(n)) }

// close marks the producer done. Buffered elements stay poppable.
func (r *ring) close() { r.closed.Store(1) }

// reopen readies a lane for a run: the closed flag cleared and, after an
// earlier run released it, a buffer again. A finished run leaves every
// lane drained, so the cursors already agree and stay where they are.
func (r *ring) reopen() {
	if r.buf == nil {
		r.buf = make([]core.Hashed, r.mask+1)
	}
	r.closed.Store(0)
}

// free drops the buffer once a run has drained the lane. The cursors
// stay readable (len, drained): the occupancy gauge holds the lanes for as
// long as its registry lives, which can be longer than the System — a
// caller that scrapes the registry keeps it — and should not hold
// QueueDepth packets per lane with them.
func (r *ring) free() { r.buf = nil }

// drained reports closed-and-empty — the consumer's termination test.
// The closed flag is read before the cursors: racing the producer's final
// push-then-close can only err toward "not drained yet", never toward
// losing a packet.
//
//im:hotpath
func (r *ring) drained() bool {
	if r.closed.Load() == 0 {
		return false
	}
	return r.tail.Load() == r.head.Load()
}

// len reports the buffered element count (approximate under concurrency;
// read by the occupancy gauge and the saturation probe only).
func (r *ring) len() int {
	return int(r.tail.Load() - r.head.Load())
}
