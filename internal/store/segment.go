// Package store is the epoch history subsystem: a crash-safe, append-only
// log of per-epoch WSAF snapshots plus the query engine that answers the
// cross-epoch questions the live meter cannot — flow timelines, windowed
// Top-K, and heavy-changer detection ("who got big between these two
// windows").
//
// A store directory holds numbered segment files (seg-00000001.seg, ...).
// Each segment is a sequence of framed records; one record is one epoch
// append — a full IMS1 snapshot with its IMT1 stats trailer (the exact
// bytes Meter.ExportSnapshot writes, inner CRCs included) wrapped in an
// outer frame that adds the epoch, the record count, and a payload CRC, so
// segments can be indexed and integrity-checked without decoding flow
// payloads. A segment is a function of the appends alone: two stores fed
// the same epochs hold byte-identical files. On open every segment
// is scanned front to back; the scan stops at the first record that fails
// any check and the file is truncated to the valid prefix — a torn tail
// from a crash mid-append is recovered, never fatal, with data loss
// bounded to the record being written when the process died. The one
// exception is a rollup record, which earlier versions' compaction wrote:
// it is whole data this version cannot read, so the open fails instead.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"instameasure/internal/export"
)

// Outer-frame wire constants.
const (
	recordMagic = 0x494D5231 // "IMR1"
	segVersion  = 1

	// flagRollup marked a compacted record in earlier versions, which
	// merged old segments into per-flow rollups. None is written now, and
	// a segment holding one is refused rather than read or truncated.
	flagRollup = 1 << 0

	// headerLen is the outer record header:
	// magic(4) ver(1) flags(1) epoch(8) reserved(8) count(4) payloadLen(4).
	// The reserved bytes are written as zero and skipped on read; earlier
	// versions stamped the append's wall clock there, and their segments
	// open unchanged.
	headerLen = 4 + 1 + 1 + 8 + 8 + 4 + 4

	// maxRecords mirrors the export codec's batch bound: a corrupt count
	// field cannot trigger an enormous allocation.
	maxRecords = 1 << 24

	// The payload is an IMS1 snapshot with an IMT1 trailer. Its framing
	// overhead and per-record encoded sizes are fixed by the export codec;
	// any (count, payloadLen) pair outside [overhead + count·min,
	// overhead + count·max] is internally inconsistent and rejected before
	// any payload allocation. TestFrameBoundsMatchExportCodec pins these
	// against the real encoder.
	snapOverhead   = 4 + 21 + 4 + (4 + 40 + 4) // IMS1 magic + batch header + batch CRC + trailer
	recordMinBytes = 1 + 2*4 + 4 + 1 + 4*8
	recordMaxBytes = 1 + 2*16 + 4 + 1 + 4*8
)

// Framing errors.
var (
	ErrBadMagic    = errors.New("store: bad record magic")
	ErrBadVersion  = errors.New("store: unsupported record version")
	ErrBadFlags    = errors.New("store: unknown record flags")
	ErrChecksum    = errors.New("store: record checksum mismatch")
	ErrFrameLength = errors.New("store: payload length inconsistent with record count")
	ErrCrossCheck  = errors.New("store: outer frame disagrees with inner snapshot")
	ErrRollup      = errors.New("store: rollup record from a compacted store, which this version does not read")
)

// recordHeader is a decoded outer frame header.
type recordHeader struct {
	epoch      int64
	count      uint32
	payloadLen uint32
}

// frameLen is the record's total on-disk length.
func (h recordHeader) frameLen() int64 {
	return headerLen + int64(h.payloadLen) + 4
}

// appendHeader encodes h onto dst.
func appendHeader(dst []byte, h recordHeader) []byte {
	dst = binary.BigEndian.AppendUint32(dst, recordMagic)
	dst = append(dst, segVersion, 0) // flags: none are written
	dst = binary.BigEndian.AppendUint64(dst, uint64(h.epoch))
	dst = binary.BigEndian.AppendUint64(dst, 0) // reserved
	dst = binary.BigEndian.AppendUint32(dst, h.count)
	dst = binary.BigEndian.AppendUint32(dst, h.payloadLen)
	return dst
}

// parseHeader decodes and sanity-checks an outer header: magic, version,
// flags, count bound, and the count/payloadLen cross-check — all before a
// single payload byte is read. A rollup flag is ErrRollup, not a framing
// error: the record is whole, just not one this version reads.
func parseHeader(b []byte) (recordHeader, error) {
	var h recordHeader
	if len(b) < headerLen {
		return h, fmt.Errorf("store: record header: %w", io.ErrUnexpectedEOF)
	}
	if binary.BigEndian.Uint32(b[0:4]) != recordMagic {
		return h, ErrBadMagic
	}
	if b[4] != segVersion {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, b[4])
	}
	if b[5] == flagRollup {
		return h, ErrRollup
	}
	if b[5] != 0 {
		return h, fmt.Errorf("%w: 0x%02x", ErrBadFlags, b[5])
	}
	h.epoch = int64(binary.BigEndian.Uint64(b[6:14]))
	h.count = binary.BigEndian.Uint32(b[22:26])
	h.payloadLen = binary.BigEndian.Uint32(b[26:30])
	if h.count > maxRecords {
		return h, fmt.Errorf("%w: count=%d", ErrFrameLength, h.count)
	}
	lo := uint64(snapOverhead) + uint64(h.count)*recordMinBytes
	hi := uint64(snapOverhead) + uint64(h.count)*recordMaxBytes
	if uint64(h.payloadLen) < lo || uint64(h.payloadLen) > hi {
		return h, fmt.Errorf("%w: count=%d payload=%d", ErrFrameLength, h.count, h.payloadLen)
	}
	return h, nil
}

// Inner-snapshot offsets inside the payload, fixed by the export codec:
// IMS1 magic(4), then the batch header magic(4) ver(1) epoch(8) count(4).
const (
	innerEpochOff = 4 + 4 + 1
	innerCountOff = innerEpochOff + 8
)

// innerCrossCheck verifies the payload's snapshot framing agrees with the
// outer header: the inner record count and epoch must both match.
func innerCrossCheck(h recordHeader, payload []byte) error {
	if len(payload) < snapOverhead {
		return fmt.Errorf("store: inner snapshot: %w", io.ErrUnexpectedEOF)
	}
	inner := int64(binary.BigEndian.Uint64(payload[innerEpochOff:]))
	innerCount := binary.BigEndian.Uint32(payload[innerCountOff:])
	if innerCount != h.count {
		return fmt.Errorf("%w: outer count %d, inner %d", ErrCrossCheck, h.count, innerCount)
	}
	if inner != h.epoch {
		return fmt.Errorf("%w: outer epoch %d, inner %d", ErrCrossCheck, h.epoch, inner)
	}
	return nil
}

// endFrame ends a record frame that starts at start in enc's buffer, where
// the outer header (appendHeader) precedes the snapshot enc began: the
// stats trailer closes the payload, the outer count and payloadLen are
// patched, and the payload CRC follows. On error the buffer is returned
// as it was before the header.
func endFrame(enc *export.Encoder, start int, stats export.TableStats) ([]byte, error) {
	out, err := enc.EndSnapshot(stats)
	if err != nil {
		return out[:start], err
	}
	payload := out[start+headerLen:]
	binary.BigEndian.PutUint32(out[start+headerLen-8:], uint32(enc.Count()))
	binary.BigEndian.PutUint32(out[start+headerLen-4:], uint32(len(payload)))
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload)), nil
}

// recordRef is one indexed record: enough to locate, order, and skip it
// without touching the payload.
type recordRef struct {
	seg   int   // segment id
	off   int64 // offset of the outer header within the segment
	size  int64 // total frame length
	epoch int64
	count uint32
}

// parseSegment indexes the record frames in data (one whole segment file),
// returning the refs of every valid record and the length of the valid
// prefix. Scanning stops at the first frame that fails any structural
// check, without error: the caller truncates the file there. A rollup
// record stops it with ErrRollup instead, and the file must be left as it
// is.
func parseSegment(segID int, data []byte) (refs []recordRef, validLen int64, err error) {
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return refs, off, nil
		}
		h, herr := parseHeader(rest)
		if errors.Is(herr, ErrRollup) {
			return refs, off, herr
		}
		if herr != nil || int64(len(rest)) < h.frameLen() {
			return refs, off, nil
		}
		payload := rest[headerLen : headerLen+int64(h.payloadLen)]
		crc := binary.BigEndian.Uint32(rest[headerLen+int64(h.payloadLen):])
		if crc32.ChecksumIEEE(payload) != crc || innerCrossCheck(h, payload) != nil {
			return refs, off, nil
		}
		refs = append(refs, recordRef{
			seg:   segID,
			off:   off,
			size:  h.frameLen(),
			epoch: h.epoch,
			count: h.count,
		})
		off += h.frameLen()
	}
}

// segName formats a segment id as its file name.
func segName(id int) string { return fmt.Sprintf("seg-%08d.seg", id) }

// parseSegName extracts a segment id from a file name, reporting whether
// the name is a segment file at all.
func parseSegName(name string) (int, bool) {
	var id int
	if _, err := fmt.Sscanf(name, "seg-%d.seg", &id); err != nil {
		return 0, false
	}
	if name != segName(id) {
		return 0, false
	}
	return id, true
}

// readFrame reads one record frame from an open segment file into buf
// (ref.size bytes long) and re-verifies it, returning its payload (the
// inner snapshot bytes, inside buf). The CRC is checked again on every
// read: the open-time scan guards against torn writes, this guards against
// bit rot after open.
func readFrame(f *os.File, ref recordRef, buf []byte) ([]byte, error) {
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("store: read segment %d @%d: %w", ref.seg, ref.off, err)
	}
	h, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	// The indexed ref sized buf; a header whose payloadLen no longer
	// matches it is bit rot, not a framing we should slice by.
	if h.frameLen() != ref.size {
		return nil, ErrChecksum
	}
	payload := buf[headerLen : headerLen+int64(h.payloadLen)]
	crc := binary.BigEndian.Uint32(buf[headerLen+int64(h.payloadLen):])
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, ErrChecksum
	}
	return payload, nil
}
