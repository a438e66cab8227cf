package pipeline

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"instameasure/internal/packet"
)

func mkhpkt(i int) hpkt {
	return hpkt{
		p: packet.Packet{
			Key: packet.V4Key(uint32(i), ^uint32(i), uint16(i), uint16(i>>8)+1, packet.ProtoUDP),
			Len: uint16(i%1400) + 64,
			TS:  int64(i),
		},
		h: uint64(i)*0x9E3779B97F4A7C15 + 1,
	}
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
	buf := make([]hpkt, 5)
	for got < 1000 {
		for i := 0; i < 3 && next < 1000; i++ {
			if r.pushBatch([]hpkt{mkhpkt(next)}) == 1 {
				next++
			}
		}
		n := r.popBatch(buf)
		for i := 0; i < n; i++ {
			if want := mkhpkt(got); buf[i] != want {
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
	src := make([]hpkt, 20)
	for i := range src {
		src[i] = mkhpkt(i)
	}
	if n := r.pushBatch(src); n != 8 {
		t.Fatalf("push into empty ring of 8 accepted %d", n)
	}
	if n := r.pushBatch(src[8:]); n != 0 {
		t.Fatalf("push into full ring accepted %d", n)
	}
	dst := make([]hpkt, 3)
	if n := r.popBatch(dst); n != 3 {
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
		if r.pushBatch([]hpkt{mkhpkt(i)}) != 1 {
			t.Fatal("fill failed")
		}
	}
	r.close()
	if r.drained() {
		t.Fatal("drained() true with 4 buffered elements")
	}
	buf := make([]hpkt, 3)
	seen := 0
	for !r.drained() {
		n := r.popBatch(buf)
		if n == 0 {
			t.Fatal("ring not drained but popBatch returned 0")
		}
		for i := 0; i < n; i++ {
			if buf[i] != mkhpkt(seen) {
				t.Fatalf("element %d corrupted after close", seen)
			}
			seen++
		}
	}
	if seen != 4 {
		t.Fatalf("drained after %d elements, want 4", seen)
	}
	if r.popBatch(buf) != 0 {
		t.Fatal("pop after drain returned elements")
	}
}

// TestRingConcurrentStress is the -race witness for the SPSC protocol: one
// producer and one consumer hammer a small ring so the cursors wrap
// thousands of times, and the consumer checks every element arrives
// exactly once, in order, uncorrupted. The ring's slots are plain memory,
// so a cursor published before its slot is filled, or released before it
// is read, is a data race the detector reports. The consumer keeps
// draining past a bad element, so the producer never blocks on a full
// ring and the test ends either way.
func TestRingConcurrentStress(t *testing.T) {
	const total = 200_000
	r := newRing(64)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		src := make([]hpkt, 17)
		next := 0
		for next < total {
			n := len(src)
			if rem := total - next; n > rem {
				n = rem
			}
			for i := 0; i < n; i++ {
				src[i] = mkhpkt(next + i)
			}
			pushed := 0
			for pushed < n {
				k := r.pushBatch(src[pushed:n])
				if k == 0 {
					runtime.Gosched()
				}
				pushed += k
			}
			next += n
		}
		r.close()
	}()

	go func() { // consumer
		defer wg.Done()
		buf := make([]hpkt, 23)
		seen, bad := 0, -1
		for !r.drained() {
			n := r.popBatch(buf)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < n; i++ {
				if bad < 0 && buf[i] != mkhpkt(seen) {
					bad = seen
				}
				seen++
			}
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
