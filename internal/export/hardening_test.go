package export

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// TestFrameLengthCrossCheck: a header whose payload length cannot hold its
// record count (or vice versa) is rejected before any payload is read.
func TestFrameLengthCrossCheck(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, Batch{Epoch: 1, Records: []Record{rec(1)}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		count      uint32
		payloadLen uint32
	}{
		{"payload too short for count", 2, 46},
		{"payload too long for count", 1, 71},
		{"zero count, nonzero payload", 0, 46},
		{"huge payload, small count", 1, 1 << 30},
	} {
		raw := append([]byte{}, buf.Bytes()...)
		binary.BigEndian.PutUint32(raw[13:17], tc.count)
		binary.BigEndian.PutUint32(raw[17:21], tc.payloadLen)
		if _, err := ReadBatch(bytes.NewReader(raw)); !errors.Is(err, ErrFrameLength) {
			t.Errorf("%s: err = %v, want ErrFrameLength", tc.name, err)
		}
	}
}

// TestTruncatedPayloadNoOverAllocate: a header claiming a large (but
// internally consistent) payload over a truncated stream must fail with
// ErrUnexpectedEOF — the incremental reader never allocates the claimed
// size up front: a fresh reader's buffer grows by one readChunk.
func TestTruncatedPayloadNoOverAllocate(t *testing.T) {
	count := uint32(1 << 20)
	hdr := make([]byte, 0, 21)
	hdr = binary.BigEndian.AppendUint32(hdr, batchMagic)
	hdr = append(hdr, version)
	hdr = binary.BigEndian.AppendUint64(hdr, 0)
	hdr = binary.BigEndian.AppendUint32(hdr, count)
	hdr = binary.BigEndian.AppendUint32(hdr, count*recordMinBytes) // ~46 MB claimed
	raw := append(hdr, 1, 2, 3)                                    // 3 bytes delivered

	var br BatchReader
	if _, err := br.Read(bytes.NewReader(raw)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want ErrUnexpectedEOF", err)
	}
	if c := cap(br.body); c > readChunk {
		t.Errorf("payload buffer grew to %d bytes on a lying header (limit %d)", c, readChunk)
	}
}

// frameWith frames payload as a v1 batch claiming count records, with a
// valid CRC: everything a decoder checks before the records themselves.
func frameWith(count uint32, payload []byte) []byte {
	raw := binary.BigEndian.AppendUint32(nil, batchMagic)
	raw = append(raw, version)
	raw = binary.BigEndian.AppendUint64(raw, 1)
	raw = binary.BigEndian.AppendUint32(raw, count)
	raw = binary.BigEndian.AppendUint32(raw, uint32(len(payload)))
	raw = append(raw, payload...)
	return binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
}

// TestPayloadDisagreesWithCount: a payload inside the count's length band,
// with a valid CRC, whose records still do not add up to it — it runs out
// at a record boundary, runs out inside a record, or has bytes left over —
// fails both decoders (the stream reader and the in-place snapshot
// decoder) with an error, never a panic or a short batch.
func TestPayloadDisagreesWithCount(t *testing.T) {
	payloadOf := func(recs ...Record) []byte {
		frame := encodeBatch(t, Batch{Records: recs})
		return frame[21 : len(frame)-4]
	}
	v6 := Record{Key: seedKeyV6(), Pkts: 1}
	v4 := payloadOf(rec(1))
	for _, tc := range []struct {
		name    string
		count   uint32
		payload []byte
	}{
		{"ends at a record boundary", 3, payloadOf(v6, v6)},
		{"ends inside a record", 2, append(payloadOf(v6), v4[:22]...)},
		{"bytes left over", 1, append(bytes.Clone(v4), make([]byte, 10)...)},
	} {
		frame := frameWith(tc.count, tc.payload)
		if b, err := ReadBatch(bytes.NewReader(frame)); err == nil {
			t.Errorf("%s: ReadBatch returned %d records, want an error", tc.name, len(b.Records))
		}
		snap := binary.BigEndian.AppendUint32(nil, snapshotMagic)
		if _, _, _, err := DecodeSnapshotStats(append(snap, frame...), func(*Record) {}); err == nil {
			t.Errorf("%s: DecodeSnapshotStats returned no error", tc.name)
		}
	}
}

// TestDecodeSnapshotStatsTruncated: the in-place snapshot decoder slices
// the payload and the CRC out of the bytes it is given, so every cut of a
// snapshot short of its end is an error, never a panic — except the cut
// where the optional stats trailer starts, which is a snapshot without
// one.
func TestDecodeSnapshotStatsTruncated(t *testing.T) {
	snap, err := AppendSnapshotStats(nil, 4, mixedRecords(8), TableStats{Updates: 9})
	if err != nil {
		t.Fatal(err)
	}
	trailer := len(snap) - 48
	for cut := range len(snap) {
		_, _, hasStats, err := DecodeSnapshotStats(snap[:cut], func(*Record) {})
		switch {
		case cut == trailer && (err != nil || hasStats):
			t.Errorf("cut at the trailer: hasStats=%v err=%v, want a snapshot without stats", hasStats, err)
		case cut != trailer && err == nil:
			t.Errorf("cut at %d of %d bytes: no error", cut, len(snap))
		}
	}
}

// TestBadRecordFlagRejected: a flag byte other than 0/1 fails decoding
// even when framing and checksum are intact.
func TestBadRecordFlagRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, Batch{Epoch: 1, Records: []Record{rec(1)}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	payload := raw[21 : len(raw)-4]
	payload[0] = 0x7F // corrupt the flag
	binary.BigEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(payload))
	if _, err := ReadBatch(bytes.NewReader(raw)); !errors.Is(err, ErrBadRecord) {
		t.Errorf("err = %v, want ErrBadRecord", err)
	}
}

// TestTruncatedTrailerWrapped: a stats trailer cut mid-body or mid-CRC is
// a wrapped error, never a panic or silent truncation.
func TestTruncatedTrailerWrapped(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshotStats(&buf, 1, []Record{rec(1)}, TableStats{Inserts: 1}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut <= 44; cut += 7 {
		_, _, _, err := ReadSnapshotStats(bytes.NewReader(full[:len(full)-cut]))
		if err == nil {
			t.Errorf("cut=%d: truncated trailer accepted", cut)
		}
	}
	// Sanity: the intact file still reads with stats.
	if _, stats, has, err := ReadSnapshotStats(bytes.NewReader(full)); err != nil || !has || stats.Inserts != 1 {
		t.Errorf("intact file: stats=%+v has=%v err=%v", stats, has, err)
	}
}
