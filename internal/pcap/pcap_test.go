package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkEthernet, 0)
	type rec struct {
		ts   int64
		wire int
		data []byte
	}
	rng := rand.New(rand.NewSource(1))
	var want []rec
	for i := 0; i < 100; i++ {
		data := make([]byte, 40+rng.Intn(1400))
		rng.Read(data)
		r := rec{ts: int64(i) * 1_000_003, wire: len(data) + rng.Intn(10), data: data}
		want = append(want, r)
		if err := w.Write(r.ts, r.wire, r.data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkEthernet {
		t.Errorf("link type = %d, want Ethernet", r.LinkType())
	}
	for i, wr := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.TS != wr.ts {
			t.Errorf("record %d: ts = %d, want %d", i, got.TS, wr.ts)
		}
		if got.WireLen != wr.wire {
			t.Errorf("record %d: wire = %d, want %d", i, got.WireLen, wr.wire)
		}
		if !bytes.Equal(got.Data, wr.data) {
			t.Errorf("record %d: data mismatch", i)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("after last record err = %v, want EOF", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payload []byte, tsRaw uint32) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		ts := int64(tsRaw) * 1000
		var buf bytes.Buffer
		w := NewWriter(&buf, LinkRaw, 0)
		if err := w.Write(ts, len(payload), payload); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Next()
		if err != nil {
			return false
		}
		return got.TS == ts && bytes.Equal(got.Data, payload) && r.LinkType() == LinkRaw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSnapLenTruncatesWrites(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkEthernet, 64)
	data := make([]byte, 200)
	if err := w.Write(0, 200, data); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 64 {
		t.Errorf("snapped data len = %d, want 64", len(got.Data))
	}
	if got.WireLen != 200 {
		t.Errorf("wire len = %d, want 200 (original preserved)", got.WireLen)
	}
}

func TestEmptyCaptureHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkEthernet, 0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 24 {
		t.Fatalf("empty capture size = %d, want 24-byte global header", buf.Len())
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("empty capture Next err = %v, want EOF", err)
	}
}

func TestBigEndianMicrosecondCapture(t *testing.T) {
	// Hand-craft a big-endian, microsecond-magic capture (the classic
	// tcpdump format on big-endian hosts).
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], magicMicros)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], uint32(LinkEthernet))
	buf.Write(hdr)

	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 10)  // 10 s
	binary.BigEndian.PutUint32(rec[4:8], 500) // 500 µs
	binary.BigEndian.PutUint32(rec[8:12], 4)
	binary.BigEndian.PutUint32(rec[12:16], 4)
	buf.Write(rec)
	buf.Write([]byte{1, 2, 3, 4})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(10)*1e9 + 500*1e3; got.TS != want {
		t.Errorf("ts = %d, want %d (µs converted to ns)", got.TS, want)
	}
	if !bytes.Equal(got.Data, []byte{1, 2, 3, 4}) {
		t.Error("payload mismatch")
	}
}

func TestBadMagic(t *testing.T) {
	buf := bytes.NewReader(make([]byte, 24))
	if _, err := NewReader(buf); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedGlobalHeader(t *testing.T) {
	buf := bytes.NewReader([]byte{0xd4, 0xc3})
	if _, err := NewReader(buf); err == nil {
		t.Error("truncated header must fail")
	}
}

func TestCorruptRecordHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkEthernet, 0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Append a record claiming incl > orig.
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[8:12], 100)
	binary.LittleEndian.PutUint32(rec[12:16], 50)
	buf.Write(rec)
	buf.Write(make([]byte, 100))

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorruptHdr) {
		t.Errorf("err = %v, want ErrCorruptHdr", err)
	}
}

func TestRecordExceedsSnapLen(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], magicNanos)
	binary.LittleEndian.PutUint32(hdr[16:20], 8) // snap 8
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(LinkEthernet))
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[8:12], 64)
	binary.LittleEndian.PutUint32(rec[12:16], 64)
	buf.Write(rec)
	buf.Write(make([]byte, 64))

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrSnapLen) {
		t.Errorf("err = %v, want ErrSnapLen", err)
	}
}

func TestTruncatedRecordBody(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkEthernet, 0)
	if err := w.Write(0, 8, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("truncated body must fail")
	}
}

// TestRecordDataValidUntilNextNext pins the record buffer contract: Data
// points into the Reader's buffer and is intact until the next Next, and
// Next allocates nothing per record. Whether that Next overwrites it is
// the Reader's business: the buffer holds a block of records, so Data
// usually survives several calls, but it must not be relied on. The
// capture trickles in 100-byte reads, so records straddle refills and the
// buffer compacts under the records already returned.
func TestRecordDataValidUntilNextNext(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkEthernet, 0)
	const records = 1000
	for i := 0; i < records; i++ {
		if err := w.Write(int64(i), 64, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&trickle{r: &buf, n: 100})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	allocs := testing.AllocsPerRun(records-1, func() {
		rec, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range rec.Data {
			if b != byte(n) || len(rec.Data) != 64 || rec.TS != int64(n) {
				t.Fatalf("record %d: ts %d, data %x", n, rec.TS, rec.Data)
			}
		}
		n++
	})
	if allocs != 0 {
		t.Errorf("Next: %v allocations per record, want 0", allocs)
	}
	if n != records { // AllocsPerRun adds one warm-up call
		t.Errorf("read %d records", n)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("after the last record: %v, want EOF", err)
	}
}

// trickle hands out at most n bytes per Read, like a slow pipe.
type trickle struct {
	r io.Reader
	n int
}

func (t *trickle) Read(p []byte) (int, error) { return t.r.Read(p[:min(len(p), t.n)]) }

// capture writes records of the given body sizes (body i filled with
// byte i) as a raw-IP capture with no snap cap to speak of.
func capture(t *testing.T, sizes ...int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkRaw, 1<<26)
	for i, n := range sizes {
		if err := w.Write(int64(i)*1e9, n, bytes.Repeat([]byte{byte(i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll drains r with Next, or with NextBlock into one recycled Block,
// from record first on.
func readAll(t *testing.T, r *Reader, blocks bool, first int) (sizes []int) {
	t.Helper()
	check := func(i int, ts int64, data []byte) {
		i += first
		if ts != int64(i)*1e9 || !bytes.Equal(data, bytes.Repeat([]byte{byte(i)}, len(data))) {
			t.Fatalf("record %d: ts %d, %d bytes not all %#x", i, ts, len(data), byte(i))
		}
	}
	var b Block
	for {
		var err error
		if blocks {
			if err = r.NextBlock(&b); err == nil {
				for _, f := range b.Frames {
					check(len(sizes), f.TS, b.Data[f.Off:f.Off+f.Incl])
					sizes = append(sizes, int(f.Incl))
				}
				continue
			}
		} else {
			var rec Record
			if rec, err = r.Next(); err == nil {
				check(len(sizes), rec.TS, rec.Data)
				sizes = append(sizes, len(rec.Data))
				continue
			}
		}
		if !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
		return sizes
	}
}

// TestReaderRecordsAcrossRefills: records larger than the block, and
// bodies split across refills by a trickling reader, come back intact
// through both views, Next and NextBlock.
func TestReaderRecordsAcrossRefills(t *testing.T) {
	sizes := []int{60, blockSize + 12345, 70, 3*blockSize + 1, 80, blockSize - 40, 90}
	raw := capture(t, sizes...)
	for _, reads := range []int{len(raw), 7919, 100} {
		for _, blocks := range []bool{false, true} {
			r, err := NewReader(&trickle{r: bytes.NewReader(raw), n: reads})
			if err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, r, blocks, 0); !slices.Equal(got, sizes) {
				t.Fatalf("reads of %d, blocks %v: record sizes %v, want %v", reads, blocks, got, sizes)
			}
		}
	}
}

// TestNextBlockRecyclesBuffers: a caller that hands each Block back reads
// a multi-block capture without allocating, every record once, in order;
// a header failing validation mid-block ends the block and comes back as
// the next call's error.
func TestNextBlockRecyclesBuffers(t *testing.T) {
	sizes := make([]int, 60_000)
	for i := range sizes {
		sizes[i] = 40 + i%90
	}
	raw := capture(t, sizes...)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var b Block
	records := 0
	next := func() {
		if err := r.NextBlock(&b); err != nil {
			t.Fatal(err)
		}
		for i, f := range b.Frames {
			if int(f.Incl) != sizes[records+i] || b.Data[f.Off] != byte(records+i) {
				t.Fatalf("record %d: %d bytes starting %#x", records+i, f.Incl, b.Data[f.Off])
			}
		}
		records += len(b.Frames)
	}
	// The buffer doubles from readChunk while reads fill it; once both
	// buffers the Block and the Reader trade are full-sized, nothing
	// allocates.
	for blocks := 0; cap(b.Data) < blockSize || blocks < 2; blocks++ {
		next()
	}
	if allocs := testing.AllocsPerRun(3, next); allocs != 0 {
		t.Errorf("NextBlock: %v allocations per block, want 0", allocs)
	}
	if rest := readAll(t, r, true, records); records+len(rest) != len(sizes) {
		t.Errorf("read %d + %d records, want %d", records, len(rest), len(sizes))
	}

	last := len(raw) - sizes[len(sizes)-1] - 16
	binary.LittleEndian.PutUint32(raw[last+8:], 1<<27) // incl above snap 1<<26
	if r, err = NewReader(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	for err == nil {
		err = r.NextBlock(&b)
	}
	if !errors.Is(err, ErrSnapLen) {
		t.Errorf("corrupt last header: %v, want ErrSnapLen", err)
	}
}
