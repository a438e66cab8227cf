package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
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

// TestRecordDataValidUntilNextNext pins who owns the record buffer: Data
// aliases the Reader's one body buffer, so a record is intact until the
// next Next and overwritten by it — which is what lets Next allocate
// nothing per record.
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
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Data, bytes.Repeat([]byte{0}, 64)) {
		t.Fatalf("first record data = %x", first.Data)
	}
	second, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if &first.Data[0] != &second.Data[0] || first.Data[0] != 1 {
		t.Errorf("second Next did not reuse the first record's buffer (first now starts %#x)", first.Data[0])
	}

	n := 2
	allocs := testing.AllocsPerRun(records-10, func() {
		if _, err := r.Next(); err == nil {
			n++
		}
	})
	if allocs != 0 {
		t.Errorf("Next: %v allocations per record, want 0", allocs)
	}
	if n != records-10+1+2 { // AllocsPerRun adds one warm-up call
		t.Errorf("read %d records", n)
	}
}
