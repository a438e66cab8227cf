package trace

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"instameasure/internal/packet"
)

// drainMixed reads a BatchSource to EOF with a mix of batch sizes and the
// occasional scalar Next, returning the delivered packets in order.
func drainMixed(t *testing.T, src BatchSource, bufSizes []int) []packet.Packet {
	t.Helper()
	var out []packet.Packet
	buf := make([]packet.Packet, 1024)
	for i := 0; ; i++ {
		if len(bufSizes) > 0 && i%3 == 2 {
			p, err := src.Next()
			if errors.Is(err, io.EOF) {
				return out
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			out = append(out, p)
			continue
		}
		sz := 1024
		if len(bufSizes) > 0 {
			sz = bufSizes[i%len(bufSizes)]
		}
		n, err := src.NextBatch(buf[:sz])
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		if n == 0 {
			t.Fatal("NextBatch returned 0 with nil error — violates the BatchSource contract")
		}
		out = append(out, buf[:n]...)
	}
}

func splitTestTrace(t *testing.T, packets int) *Trace {
	t.Helper()
	tr, err := GenerateZipf(ZipfConfig{Flows: 200, TotalPackets: packets, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSplitConservation: the union of the parts is exactly the source
// stream — no packet lost, none duplicated — for awkward part counts and
// stream lengths that don't align with SplitChunk.
func TestSplitConservation(t *testing.T) {
	for _, packets := range []int{0, 1, SplitChunk - 1, SplitChunk, SplitChunk + 1, 5000} {
		for _, parts := range []int{1, 2, 3, 8} {
			tr := splitTestTrace(t, max(packets, 1))
			pkts := tr.Packets[:min(packets, len(tr.Packets))]
			src := &sliceSource{pkts: pkts}
			seen := make(map[packet.Packet]int, len(pkts))
			total := 0
			for pi, part := range src.Split(parts) {
				got := drainMixed(t, part, []int{97, 256, 3})
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

// plainSource hides NextBatch and Split: what Share reads through Next.
type plainSource struct{ inner Source }

func (s plainSource) Next() (packet.Packet, error) { return s.inner.Next() }

// failAfter delivers n packets and then returns err forever.
type failAfter struct {
	inner Source
	n     int
	err   error
}

func (s *failAfter) Next() (packet.Packet, error) {
	if s.n == 0 {
		return packet.Packet{}, s.err
	}
	s.n--
	return s.inner.Next()
}

// drainConcurrently reads every part to its terminating error from a
// goroutine of its own — how the pipeline's workers read them — and returns
// what each delivered, in order, plus that error. scalar reads through
// Next. It reports a broken BatchSource contract (packets and an error
// from one call, or neither) as an error of its own.
func drainConcurrently(parts []BatchSource, bufSize int, scalar bool) ([][]packet.Packet, []error, error) {
	got := make([][]packet.Packet, len(parts))
	ends := make([]error, len(parts))
	broken := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]packet.Packet, bufSize)
			for {
				if scalar {
					p, err := part.Next()
					if err != nil {
						ends[i] = err
						return
					}
					got[i] = append(got[i], p)
					continue
				}
				n, err := part.NextBatch(buf)
				if (n > 0) == (err != nil) {
					broken[i] = fmt.Errorf("part %d: NextBatch returned n=%d err=%v", i, n, err)
					return
				}
				if err != nil {
					ends[i] = err
					return
				}
				got[i] = append(got[i], buf[:n]...)
			}
		}()
	}
	wg.Wait()
	return got, ends, errors.Join(broken...)
}

// TestShareConservation: N goroutines draining a shared source see every
// packet exactly once between them, each in stream order, whether the
// source underneath reads in batches or one Next at a time.
func TestShareConservation(t *testing.T) {
	for _, packets := range []int{0, 1, SplitChunk + 1, 5000} {
		for _, parts := range []int{1, 3, 8} {
			for _, plain := range []bool{false, true} {
				tr := splitTestTrace(t, max(packets, 1))
				pkts := tr.Packets[:min(packets, len(tr.Packets))]
				var src Source = &sliceSource{pkts: pkts}
				if plain {
					src = plainSource{inner: src}
				}
				got, ends, err := drainConcurrently(Share(src, parts), 97, false)
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
					t.Fatalf("packets=%d parts=%d plain=%v: delivered %d", packets, parts, plain, total)
				}
				for _, p := range pkts {
					if seen[p] == 0 {
						t.Fatalf("packets=%d parts=%d plain=%v: packet lost: %+v", packets, parts, plain, p)
					}
					seen[p]--
				}
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
	parts := Share(&failAfter{inner: tr.Source(), n: good, err: boom}, 4)
	got, ends, err := drainConcurrently(parts, 64, false)
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
	if n, err := parts[0].NextBatch(make([]packet.Packet, 8)); n != 0 || !errors.Is(err, boom) {
		t.Errorf("read after the error: n=%d err=%v", n, err)
	}
	if _, err := parts[1].Next(); !errors.Is(err, boom) {
		t.Errorf("Next after the error: %v", err)
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
	for _, part := range src.Split(3) {
		total += len(drainMixed(t, part, nil))
	}
	if want := len(tr.Packets) - 300; total != want {
		t.Fatalf("parts delivered %d packets, want remainder %d", total, want)
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("consumed receiver must report EOF, got %v", err)
	}
	// A fresh Trace.Source must satisfy the pipeline's type assertion.
	if _, ok := tr.Source().(SplittableSource); !ok {
		t.Fatal("Trace.Source no longer implements SplittableSource")
	}
}

// FuzzSplitConservation drives Split — and Share, the stand-in for sources
// that cannot be split — with fuzzer-chosen stream lengths, part counts,
// and read patterns, asserting the no-loss/no-duplication invariant the
// shared-nothing pipeline's correctness rests on. mode bit 0 reads through
// Next, bit 1 shares instead of splitting, bit 2 shares a plain Source.
func FuzzSplitConservation(f *testing.F) {
	f.Add(uint16(1000), uint8(4), uint8(64), uint8(0))
	f.Add(uint16(513), uint8(3), uint8(1), uint8(1))
	f.Add(uint16(SplitChunk), uint8(1), uint8(255), uint8(2))
	f.Add(uint16(2*SplitChunk+7), uint8(9), uint8(100), uint8(3))
	f.Add(uint16(777), uint8(5), uint8(33), uint8(6))
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
		var handles []BatchSource
		switch {
		case mode&2 == 0:
			handles = src.Split(int(parts))
		case mode&4 == 0:
			handles = Share(src, int(parts))
		default:
			handles = Share(plainSource{inner: src}, int(parts))
		}
		got, ends, err := drainConcurrently(handles, int(bufSize), mode&1 == 1)
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
