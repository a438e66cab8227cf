package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// TestReaderNeverPanicsOnGarbage feeds random bytes to the reader: it must
// error (or EOF) gracefully on every input.
func TestReaderNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(256)
		data := make([]byte, n)
		rng.Read(data)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %d garbage bytes: %v", n, r)
				}
			}()
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				return
			}
			for i := 0; i < 10; i++ {
				if _, err := r.Next(); err != nil {
					return
				}
			}
		}()
	}
}

// TestReaderCorruptedValidCapture mutates a valid capture byte-by-byte;
// the reader must never panic and never allocate absurd buffers.
func TestReaderCorruptedValidCapture(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkEthernet, 256)
	for i := 0; i < 5; i++ {
		if err := w.Write(int64(i)*1e6, 64, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		mutated := make([]byte, len(valid))
		copy(mutated, valid)
		mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutated capture (trial %d): %v", trial, r)
				}
			}()
			r, err := NewReader(bytes.NewReader(mutated))
			if err != nil {
				return
			}
			for {
				if _, err := r.Next(); err != nil {
					return
				}
			}
		}()
	}
}

// TestReaderHugeClaimedLength crafts a record header claiming a 64 MiB
// body, with no snap length to cap it, and delivers just enough of the
// body to fill the reader's first buffer, so the reader must grow it. The
// read fails with ErrUnexpectedEOF, and the buffer grows by at most one
// readChunk past what it held: memory tracks the bytes delivered, never
// the header's claim.
func TestReaderHugeClaimedLength(t *testing.T) {
	hdr := make([]byte, 24+16, readChunk)
	binary.LittleEndian.PutUint32(hdr[0:4], magicNanos)
	binary.LittleEndian.PutUint32(hdr[16:20], 0) // snap length 0: no cap
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(LinkEthernet))
	binary.LittleEndian.PutUint32(hdr[24+8:24+12], 1<<26)
	binary.LittleEndian.PutUint32(hdr[24+12:24+16], 1<<26)
	stream := hdr[:readChunk] // far less than claimed

	r, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	held := len(r.buf)
	if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want ErrUnexpectedEOF", err)
	}
	if n := len(r.buf); n <= held || n > held+readChunk {
		t.Errorf("buffer went from %d to %d bytes on a lying header; want growth of at most %d", held, n, readChunk)
	}
}

// TestReaderInsaneLengthRejected: with no snap length declared, a record
// claiming a body beyond the absolute sanity cap is a corrupt header, not
// a multi-hundred-megabyte read attempt.
func TestReaderInsaneLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], magicNanos)
	binary.LittleEndian.PutUint32(hdr[16:20], 0) // snap length 0: no cap
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(LinkEthernet))
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[8:12], maxRecordBytes+1)
	binary.LittleEndian.PutUint32(rec[12:16], maxRecordBytes+1)
	buf.Write(rec)

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorruptHdr) {
		t.Errorf("err = %v, want ErrCorruptHdr", err)
	}
}

// TestReaderChunkedBodyReassembly: a record bigger than one read chunk is
// reassembled intact across the chunk boundary.
func TestReaderChunkedBodyReassembly(t *testing.T) {
	body := make([]byte, readChunk*2+1234)
	rng := rand.New(rand.NewSource(5))
	rng.Read(body)

	var buf bytes.Buffer
	w := NewWriter(&buf, LinkRaw, len(body))
	if err := w.Write(3e9, len(body), body); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Data, body) {
		t.Error("chunked body read did not reassemble the original record")
	}
}
