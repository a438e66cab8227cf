package trace

import (
	"errors"
	"io"
	"sync"
	"testing"

	"instameasure/internal/packet"
)

func splitTestTrace(t *testing.T, packets int) *Trace {
	t.Helper()
	tr, err := GenerateZipf(ZipfConfig{Flows: 200, TotalPackets: packets, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// splitReaders splits src and reads each stripe as a Source, copying its
// spans out — how the tests compare the parts with the stream.
func splitReaders(src SplittableSource, parts int) []Source {
	base, stripes := src.Split(parts)
	out := make([]Source, len(stripes))
	for i, s := range stripes {
		out[i] = stripeReader{base, s}
	}
	return out
}

type stripeReader struct {
	base []packet.Packet
	s    *Stripe
}

func (r stripeReader) NextBatch(buf []packet.Packet) (int, error) {
	lo, hi := r.s.Next(len(buf)) // Next(0) too: it must consume nothing
	if lo == hi && len(buf) > 0 {
		return 0, io.EOF
	}
	return copy(buf, r.base[lo:hi]), nil
}

// shared is Share's handle n times over: n readers of one source.
func shared(src Source, n int) []Source {
	h := Share(src)
	out := make([]Source, n)
	for i := range out {
		out[i] = h
	}
	return out
}

// TestSplitConservation: the union of the parts is exactly the source
// stream — no packet lost, none duplicated — for awkward part counts and
// stream lengths that don't align with SplitChunk, read in a mix of sizes
// that starts with a zero-length read at a chunk start.
func TestSplitConservation(t *testing.T) {
	for _, packets := range []int{0, 1, SplitChunk - 1, SplitChunk, SplitChunk + 1, 5000} {
		for _, parts := range []int{1, 2, 3, 8} {
			tr := splitTestTrace(t, max(packets, 1))
			pkts := tr.Packets[:min(packets, len(tr.Packets))]
			src := &sliceSource{pkts: pkts}
			seen := make(map[packet.Packet]int, len(pkts))
			total := 0
			for pi, part := range splitReaders(src, parts) {
				got := drain(t, part, 0, 97, 256, 3)
				// Each part must deliver its packets in stream order.
				for i := 1; i < len(got); i++ {
					if got[i].TS < got[i-1].TS {
						t.Fatalf("packets=%d parts=%d: part %d out of order at %d", packets, parts, pi, i)
					}
				}
				for _, p := range got {
					seen[p]++
				}
				total += len(got)
			}
			if total != len(pkts) {
				t.Fatalf("packets=%d parts=%d: delivered %d", packets, parts, total)
			}
			for _, p := range pkts {
				if seen[p] == 0 {
					t.Fatalf("packets=%d parts=%d: packet lost: %+v", packets, parts, p)
				}
				seen[p]--
			}
		}
	}
}

// failAfter delivers n packets and then returns err forever.
type failAfter struct {
	inner Source
	n     int
	err   error
}

func (s *failAfter) NextBatch(buf []packet.Packet) (int, error) {
	if s.n == 0 {
		return 0, s.err
	}
	n, err := s.inner.NextBatch(buf[:min(len(buf), s.n)])
	s.n -= n
	return n, err
}

// drainConcurrently reads every part to its terminating error from a
// goroutine of its own — how the pipeline's workers read them — cycling
// through sizes, and returns what each delivered, in order, plus that
// error. It reports a broken Source contract as an error of its own.
func drainConcurrently(parts []Source, sizes []int) ([][]packet.Packet, []error, error) {
	got := make([][]packet.Packet, len(parts))
	ends := make([]error, len(parts))
	broken := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], ends[i], broken[i] = readAll(part, sizes)
		}()
	}
	wg.Wait()
	return got, ends, errors.Join(broken...)
}

// TestShareConservation: N goroutines draining a shared source see every
// packet exactly once between them, each in stream order.
func TestShareConservation(t *testing.T) {
	for _, packets := range []int{0, 1, SplitChunk + 1, 5000} {
		for _, parts := range []int{1, 3, 8} {
			tr := splitTestTrace(t, max(packets, 1))
			pkts := tr.Packets[:min(packets, len(tr.Packets))]
			got, ends, err := drainConcurrently(shared(&sliceSource{pkts: pkts}, parts), []int{97})
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[packet.Packet]int, len(pkts))
			total := 0
			for pi := range got {
				if !errors.Is(ends[pi], io.EOF) {
					t.Fatalf("packets=%d parts=%d: part %d ended with %v", packets, parts, pi, ends[pi])
				}
				for i, p := range got[pi] {
					if i > 0 && p.TS < got[pi][i-1].TS {
						t.Fatalf("packets=%d parts=%d: part %d out of order at %d", packets, parts, pi, i)
					}
					seen[p]++
				}
				total += len(got[pi])
			}
			if total != len(pkts) {
				t.Fatalf("packets=%d parts=%d: delivered %d", packets, parts, total)
			}
			for _, p := range pkts {
				if seen[p] == 0 {
					t.Fatalf("packets=%d parts=%d: packet lost: %+v", packets, parts, p)
				}
				seen[p]--
			}
		}
	}
}

// TestShareDefersAndKeepsError: a source failing mid-burst hands over the
// packets before the failure with a nil error, then its error — to every
// reader, on every later call.
func TestShareDefersAndKeepsError(t *testing.T) {
	tr := splitTestTrace(t, 3000)
	boom := errors.New("read failed")
	const good = 1000 // not a multiple of the read size: the last read is short
	parts := shared(&failAfter{inner: tr.Source(), n: good, err: boom}, 4)
	got, ends, err := drainConcurrently(parts, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range got {
		total += len(got[i])
		if !errors.Is(ends[i], boom) {
			t.Errorf("part %d ended with %v, want the source's error", i, ends[i])
		}
	}
	if total != good {
		t.Errorf("delivered %d packets before the error, want %d", total, good)
	}
	for i, part := range parts[:2] {
		if n, err := part.NextBatch(make([]packet.Packet, 8)); n != 0 || !errors.Is(err, boom) {
			t.Errorf("part %d, read after the error: n=%d err=%v", i, n, err)
		}
	}
}

// TestSplitAfterPartialRead: splitting a partially consumed source covers
// exactly the remainder.
func TestSplitAfterPartialRead(t *testing.T) {
	tr := splitTestTrace(t, 3000)
	src := &sliceSource{pkts: tr.Packets}
	buf := make([]packet.Packet, 300)
	n, err := src.NextBatch(buf)
	if err != nil || n != 300 {
		t.Fatalf("priming read: n=%d err=%v", n, err)
	}
	total := 0
	for _, part := range splitReaders(src, 3) {
		total += len(drain(t, part))
	}
	if want := len(tr.Packets) - 300; total != want {
		t.Fatalf("parts delivered %d packets, want remainder %d", total, want)
	}
	if n, err := src.NextBatch(buf); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("consumed receiver must report EOF, got n=%d err=%v", n, err)
	}
	// A fresh Trace.Source must satisfy the pipeline's type assertion.
	if _, ok := tr.Source().(SplittableSource); !ok {
		t.Fatal("Trace.Source no longer implements SplittableSource")
	}
}

// FuzzSplitConservation drives Split — and Share, the stand-in for sources
// that cannot be split — with fuzzer-chosen stream lengths, part counts,
// and read sizes, asserting the no-loss/no-duplication invariant the
// shared-nothing pipeline's correctness rests on. mode bit 0 puts a
// zero-length read before every read of bufSize, bit 1 shares instead of
// splitting.
func FuzzSplitConservation(f *testing.F) {
	f.Add(uint16(1000), uint8(4), uint8(64), uint8(0))
	f.Add(uint16(513), uint8(3), uint8(1), uint8(1))
	f.Add(uint16(SplitChunk), uint8(1), uint8(255), uint8(2))
	f.Add(uint16(2*SplitChunk+7), uint8(9), uint8(100), uint8(3))
	f.Add(uint16(777), uint8(5), uint8(33), uint8(6))
	f.Add(uint16(4*SplitChunk), uint8(2), uint8(255), uint8(1)) // an empty read at each chunk start
	f.Fuzz(func(t *testing.T, nPkts uint16, parts uint8, bufSize uint8, mode uint8) {
		if parts == 0 || parts > 32 || bufSize == 0 {
			t.Skip()
		}
		pkts := make([]packet.Packet, int(nPkts))
		for i := range pkts {
			// Unique key per index makes loss/duplication attributable.
			pkts[i] = packet.Packet{
				Key: packet.V4Key(uint32(i), ^uint32(i), uint16(i), uint16(i>>8)+1, packet.ProtoUDP),
				Len: uint16(i%1400) + 64,
				TS:  int64(i),
			}
		}
		src := &sliceSource{pkts: pkts}
		var handles []Source
		if mode&2 == 0 {
			handles = splitReaders(src, int(parts))
		} else {
			handles = shared(src, int(parts))
		}
		sizes := []int{int(bufSize)}
		if mode&1 == 1 {
			sizes = []int{0, int(bufSize)}
		}
		got, ends, err := drainConcurrently(handles, sizes)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, len(pkts))
		total := 0
		for pi := range got {
			if !errors.Is(ends[pi], io.EOF) {
				t.Fatalf("part %d ended with %v", pi, ends[pi])
			}
			prev := int64(-1)
			for _, p := range got[pi] {
				idx := int(p.TS)
				if idx < 0 || idx >= len(pkts) || p != pkts[idx] {
					t.Fatalf("corrupted packet delivered: %+v", p)
				}
				if seen[idx] {
					t.Fatalf("packet %d duplicated", idx)
				}
				if p.TS <= prev {
					t.Fatalf("part delivered out of order: %d after %d", p.TS, prev)
				}
				prev = p.TS
				seen[idx] = true
				total++
			}
		}
		if total != len(pkts) {
			t.Fatalf("delivered %d of %d packets", total, len(pkts))
		}
	})
}
