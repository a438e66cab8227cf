package pipeline

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"instameasure/internal/core"
	"instameasure/internal/packet"
)

func mkrec(i int) core.Hashed {
	return core.Hashed{H: uint64(i)*0x9E3779B97F4A7C15 + 1, Len: uint16(i%1400) + 64, I: uint32(i)}
}

// pop copies up to len(dst) records out of r and releases them: the
// consumer's peek/release pair as a copying pop, for tests that check
// what came out.
func pop(r *ring, dst []core.Hashed) int {
	n := 0
	for n < len(dst) {
		recs := r.peek(len(dst) - n)
		if len(recs) == 0 {
			break
		}
		n += copy(dst[n:], recs)
		r.release(len(recs))
	}
	return n
}

func TestRingCapacityRounding(t *testing.T) {
	for _, c := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {4096, 4096}, {4097, 8192},
	} {
		r := newRing(c.ask)
		if len(r.buf) != c.want {
			t.Errorf("newRing(%d): capacity %d, want %d", c.ask, len(r.buf), c.want)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	// A tiny ring cycled many times exercises index wrap and the mask
	// arithmetic; every element must come out once, in order, intact.
	r := newRing(8)
	next := 0
	got := 0
	buf := make([]core.Hashed, 5)
	for got < 1000 {
		for i := 0; i < 3 && next < 1000; i++ {
			if r.pushBatch([]core.Hashed{mkrec(next)}) == 1 {
				next++
			}
		}
		n := pop(r, buf)
		for i := 0; i < n; i++ {
			if want := mkrec(got); buf[i] != want {
				t.Fatalf("element %d corrupted: got %+v want %+v", got, buf[i], want)
			}
			got++
		}
	}
	if r.len() != next-got {
		t.Errorf("len() = %d, want %d", r.len(), next-got)
	}
}

func TestRingPushBoundedByFree(t *testing.T) {
	r := newRing(8)
	src := make([]core.Hashed, 20)
	for i := range src {
		src[i] = mkrec(i)
	}
	if n := r.pushBatch(src); n != 8 {
		t.Fatalf("push into empty ring of 8 accepted %d", n)
	}
	if n := r.pushBatch(src[8:]); n != 0 {
		t.Fatalf("push into full ring accepted %d", n)
	}
	dst := make([]core.Hashed, 3)
	if n := pop(r, dst); n != 3 {
		t.Fatalf("pop returned %d", n)
	}
	if n := r.pushBatch(src[8:]); n != 3 {
		t.Fatalf("push after partial drain accepted %d, want 3", n)
	}
}

func TestRingCloseWhileFull(t *testing.T) {
	// Closing a full ring must not lose the buffered elements: drained()
	// stays false until the consumer has popped every one.
	r := newRing(4)
	for i := 0; i < 4; i++ {
		if r.pushBatch([]core.Hashed{mkrec(i)}) != 1 {
			t.Fatal("fill failed")
		}
	}
	r.close()
	if r.drained() {
		t.Fatal("drained() true with 4 buffered elements")
	}
	buf := make([]core.Hashed, 3)
	seen := 0
	for !r.drained() {
		n := pop(r, buf)
		if n == 0 {
			t.Fatal("ring not drained but pop returned 0")
		}
		for i := 0; i < n; i++ {
			if buf[i] != mkrec(seen) {
				t.Fatalf("element %d corrupted after close", seen)
			}
			seen++
		}
	}
	if seen != 4 {
		t.Fatalf("drained after %d elements, want 4", seen)
	}
	if pop(r, buf) != 0 {
		t.Fatal("pop after drain returned elements")
	}
}

// TestRingConcurrentStress is the -race witness for the SPSC protocol and
// for head as the release signal: one producer and one consumer hammer a
// small ring so the cursors wrap thousands of times. Like a shared run's
// worker, the producer writes each packet into a packet buffer no larger
// than the ring, reusing a slot only once head says the record indexing
// it was released; the consumer reads every record and its packet in
// place, checks each arrives exactly once, in order, uncorrupted, and only
// then releases. The ring's slots and the packets are plain memory, so a
// cursor published before its slot is filled, or released before the
// record and its packet are read, is a data race the detector reports.
// The consumer keeps draining past a bad element, so the producer never
// blocks for good and the test ends either way.
func TestRingConcurrentStress(t *testing.T) {
	const total, size = 200_000, 64
	r := newRing(size)
	pkts := make([]packet.Packet, size)
	pkt := func(i int) packet.Packet { return packet.Packet{Len: uint16(i), TS: int64(i)} }
	rec := func(i int) core.Hashed {
		return core.Hashed{H: uint64(i)*0x9E3779B97F4A7C15 + 1, Len: uint16(i), I: uint32(i % size)}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		src := make([]core.Hashed, 17)
		for next := 0; next < total; {
			n := min(len(src), total-next)
			for uint64(next+n)-r.head.Load() > size { // packet slots still referenced
				runtime.Gosched()
			}
			for i := 0; i < n; i++ {
				pkts[(next+i)%size] = pkt(next + i)
				src[i] = rec(next + i)
			}
			if k := r.pushBatch(src[:n]); k != n {
				t.Errorf("pushed %d of %d records with their slots free", k, n)
			}
			next += n
		}
		r.close()
	}()

	go func() { // consumer
		defer wg.Done()
		seen, bad := 0, -1
		for !r.drained() {
			recs := r.peek(23)
			if len(recs) == 0 {
				runtime.Gosched()
				continue
			}
			for _, got := range recs {
				if bad < 0 && (got != rec(seen) || pkts[got.I] != pkt(seen)) {
					bad = seen
				}
				seen++
			}
			r.release(len(recs))
		}
		if bad >= 0 {
			t.Errorf("element %d reordered or corrupted", bad)
		}
		if seen != total {
			t.Errorf("consumer saw %d of %d elements", seen, total)
		}
	}()
	wg.Wait()
}

// TestRingPadding: the consumer cursor, the producer cursor and the closed
// flag each own a 64-byte line, so a push never false-shares with a pop.
// The padding is sized for 64-bit layouts.
func TestRingPadding(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("ring padding is sized for 64-bit layouts")
	}
	var r ring
	if size := unsafe.Sizeof(r); size%64 != 0 {
		t.Errorf("ring is %d bytes, not a whole number of 64-byte cache lines", size)
	}
	for name, off := range map[string]uintptr{
		"head": unsafe.Offsetof(r.head), "tail": unsafe.Offsetof(r.tail), "closed": unsafe.Offsetof(r.closed),
	} {
		if off%64 != 0 {
			t.Errorf("%s sits at offset %d, not at the start of a cache line", name, off)
		}
	}
}
