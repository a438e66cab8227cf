package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"instameasure/internal/export"
)

// buildSegment encodes epochs 1..n as a valid segment byte stream, the
// same way Append does.
func buildSegment(tb testing.TB, n int) []byte {
	tb.Helper()
	var seg []byte
	for e := int64(1); e <= int64(n); e++ {
		var err error
		seg, err = appendFrame(seg, recordHeader{epoch: e}, epochRecords(e, 3), epochStats(e))
		if err != nil {
			tb.Fatal(err)
		}
	}
	return seg
}

// fuzzSeeds are FuzzStoreSegment's seeds, and the committed corpus
// TestWriteFuzzCorpus writes.
func fuzzSeeds(tb testing.TB) map[string][]byte {
	valid := buildSegment(tb, 2)
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)/2] ^= 0x40 // corrupt the second record's payload
	lying := bytes.Clone(valid)
	lying[26] ^= 0x01 // first record's payloadLen no longer matches count
	return map[string][]byte{
		"seed_valid_segment": valid,
		"seed_torn_tail":     valid[:len(valid)-9],
		"seed_bad_crc":       badCRC,
		"seed_lying_length":  lying,
		"seed_rollup_frame":  withRollup(tb, valid), // the second frame is a rollup
	}
}

// FuzzStoreSegment throws arbitrary bytes at the segment scanner. Whatever
// the input — torn tails, lying length fields, corrupted CRCs — the scan
// must not panic, must index only a structurally valid prefix, and that
// prefix must be a fixed point: rescanning it reproduces the same index.
// A rollup frame stops the scan with ErrRollup instead, and then Open must
// refuse the file without changing a byte of it.
func FuzzStoreSegment(f *testing.F) {
	for _, data := range fuzzSeeds(f) {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("IMR1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		refs, validLen, scanErr := parseSegment(1, data)
		if scanErr != nil && !errors.Is(scanErr, ErrRollup) {
			t.Fatalf("scan error %v: only a rollup frame may stop the scan with one", scanErr)
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of range (input %d)", validLen, len(data))
		}
		if rest := data[validLen:]; scanErr == nil && len(rest) >= headerLen &&
			binary.BigEndian.Uint32(rest) == recordMagic && rest[4] == segVersion && rest[5] == flagRollup {
			t.Fatalf("scan stopped at a rollup frame (offset %d) as if it were a torn tail", validLen)
		}
		off := int64(0)
		for i, r := range refs {
			if r.off != off || r.size < headerLen+snapOverhead+4 {
				t.Fatalf("ref %d malformed: off=%d size=%d (want off %d)", i, r.off, r.size, off)
			}
			off += r.size
		}
		if off != validLen {
			t.Fatalf("refs cover %d bytes, validLen %d", off, validLen)
		}

		// Rescanning the valid prefix must be a no-op.
		refs2, len2, err := parseSegment(1, data[:validLen])
		if err != nil || len2 != validLen || len(refs2) != len(refs) {
			t.Fatalf("rescan: %d refs/%d bytes (%v), want %d/%d", len(refs2), len2, err, len(refs), validLen)
		}

		// Every indexed payload passed the outer CRC; decoding it through
		// the export codec may still reject it (the outer frame does not
		// cover inner semantics) but must never panic — through the stream
		// decoder or the in-place one the queries use — and the two must
		// agree on whether it decodes.
		for _, r := range refs {
			payload := data[r.off+headerLen : r.off+r.size-4]
			_, _, _, err := export.ReadSnapshotStats(bytes.NewReader(payload))
			_, _, _, err2 := export.DecodeSnapshotStats(payload, make([]export.Record, 1), func([]export.Record) {})
			if (err == nil) != (err2 == nil) {
				t.Fatalf("stream decoder error %v, in-place decoder error %v", err, err2)
			}
		}

		// A rollup frame: Open refuses the whole file and leaves it as it is.
		if scanErr != nil {
			dir := t.TempDir()
			path := filepath.Join(dir, segName(1))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := Open(dir, Options{}); !errors.Is(err, ErrRollup) {
				if err == nil {
					s.Close()
				}
				t.Fatalf("open over a rollup frame: %v, want ErrRollup", err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
				t.Fatalf("refused open changed the segment: %d bytes, was %d (%v)", len(after), len(data), err)
			}
			return
		}

		// Otherwise a store opened over the prefix must come up clean.
		if validLen > 0 {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(1)), data[:validLen], 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open over valid prefix: %v", err)
			}
			if got := s.Stats().Records; got != uint64(len(refs)) {
				t.Fatalf("store indexed %d records, scanner %d", got, len(refs))
			}
			s.Close()
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzStoreSegment. Run with INSTAMEASURE_WRITE_CORPUS=1
// after changing the frame format.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("INSTAMEASURE_WRITE_CORPUS") == "" {
		t.Skip("set INSTAMEASURE_WRITE_CORPUS=1 to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzStoreSegment")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range fuzzSeeds(t) {
		body := []byte("go test fuzz v1\n[]byte(" + quoteBytes(data) + ")\n")
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// quoteBytes renders data as a Go double-quoted string literal, the form
// the fuzz corpus format expects.
func quoteBytes(data []byte) string {
	var b bytes.Buffer
	b.WriteByte('"')
	for _, c := range data {
		switch {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c >= 0x20 && c < 0x7f:
			b.WriteByte(c)
		default:
			const hex = "0123456789abcdef"
			b.WriteString(`\x`)
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		}
	}
	b.WriteByte('"')
	return b.String()
}

// appendFrame encodes one epoch as a complete record frame onto dst, as
// Append does.
func appendFrame(dst []byte, h recordHeader, records []export.Record, stats export.TableStats) ([]byte, error) {
	var enc export.Encoder
	enc.BeginSnapshot(appendHeader(dst, h), h.epoch, len(records))
	for i := range records {
		enc.Put(&records[i])
	}
	return endFrame(&enc, len(dst), stats)
}
