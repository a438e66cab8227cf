// Package export implements the delegation architecture the paper
// contrasts InstaMeasure against — and that InstaMeasure itself still
// needs for archival: periodically shipping WSAF flow records to a remote
// collector. It provides a compact length-prefixed, CRC-protected binary
// codec for flow records, snapshot files for long-term storage (the
// paper's "analyze flow behavior for long-term measurement"), and a TCP
// exporter/collector pair used to measure real delegation latency.
package export

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"instameasure/internal/packet"
	"instameasure/internal/wsaf"
)

// Wire format constants.
const (
	batchMagic    = 0x494D4231 // "IMB1"
	snapshotMagic = 0x494D5331 // "IMS1"
	trailerMagic  = 0x494D5431 // "IMT1"
	version       = 1
	// versionSited is the fleet extension of the batch frame: version 2
	// inserts a length-prefixed site ID between the version byte and the
	// epoch, and folds the site bytes into the frame CRC. Writers emit
	// version 1 whenever the batch carries no site, so single-meter
	// deployments interoperate with pre-fleet readers unchanged.
	versionSited = 2

	// MaxSiteLen bounds the wire site ID (the length prefix is one byte,
	// but IDs are meant to be short human-readable labels).
	MaxSiteLen = 64

	// maxBatchRecords bounds a single batch so a corrupt length field
	// cannot trigger an enormous allocation.
	maxBatchRecords = 1 << 24

	// recordMinBytes/recordMaxBytes are the encoded sizes of a v4 and a
	// v6 record: flag(1) + addresses(8 or 32) + ports(4) + proto(1) +
	// 4 × 8-byte counters. Any (count, payloadLen) pair outside
	// [count·min, count·max] is internally inconsistent.
	recordMinBytes = 1 + 2*4 + 4 + 1 + 4*8
	recordMaxBytes = 1 + 2*16 + 4 + 1 + 4*8

	// readChunk bounds each payload-read allocation step: a header lying
	// about its length on a truncated stream costs at most one chunk of
	// memory before the read fails, not the full claimed size.
	readChunk = 1 << 16
)

// Codec errors.
var (
	ErrBadMagic    = errors.New("export: bad magic")
	ErrBadVersion  = errors.New("export: unsupported version")
	ErrChecksum    = errors.New("export: checksum mismatch")
	ErrOversized   = errors.New("export: batch exceeds record limit")
	ErrFrameLength = errors.New("export: payload length inconsistent with record count")
	ErrBadRecord   = errors.New("export: malformed record")
	ErrBadSite     = errors.New("export: malformed site ID")
)

// ValidateSite checks a site ID against the wire contract: empty (no
// site) or 1..MaxSiteLen printable non-space ASCII bytes. The same check
// runs on encode and decode, so a frame that decodes always carries a
// site a fleet aggregator can key on.
func ValidateSite(site string) error {
	if site == "" {
		return nil
	}
	if len(site) > MaxSiteLen {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrBadSite, len(site), MaxSiteLen)
	}
	for i := 0; i < len(site); i++ {
		if site[i] <= 0x20 || site[i] >= 0x7F {
			return fmt.Errorf("%w: byte 0x%02x at %d", ErrBadSite, site[i], i)
		}
	}
	return nil
}

// Record is one exported flow: the WSAF entry fields that survive
// delegation.
type Record struct {
	Key        packet.FlowKey
	Pkts       float64
	Bytes      float64
	FirstSeen  int64
	LastUpdate int64
}

// FromEntry converts a WSAF entry to an export record.
func FromEntry(e wsaf.Entry) Record {
	return Record{
		Key:        e.Key,
		Pkts:       e.Pkts,
		Bytes:      e.Bytes,
		FirstSeen:  e.FirstSeen,
		LastUpdate: e.LastUpdate,
	}
}

// Batch is one delegation unit: the epoch it summarizes and its records.
// Site, when non-empty, identifies the exporting meter (the fleet
// extension); it must satisfy ValidateSite and bumps the frame to wire
// version 2.
type Batch struct {
	Epoch   int64
	Site    string
	Records []Record
}

// appendRecord encodes r onto dst: 1 flag byte, addresses (4+4 or 16+16),
// ports, proto, then the four fixed counters.
func appendRecord(dst []byte, r *Record) []byte {
	flag := byte(0)
	n := 4
	if r.Key.IsV6 {
		flag = 1
		n = 16
	}
	dst = append(dst, flag)
	dst = append(dst, r.Key.SrcIP[:n]...)
	dst = append(dst, r.Key.DstIP[:n]...)
	dst = binary.BigEndian.AppendUint16(dst, r.Key.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, r.Key.DstPort)
	dst = append(dst, r.Key.Proto)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Pkts))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Bytes))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.FirstSeen))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.LastUpdate))
	return dst
}

// decodeRecord decodes one record from b into r, overwriting all of it,
// and returns the remainder.
func decodeRecord(r *Record, b []byte) ([]byte, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("export: record flag: %w", io.ErrUnexpectedEOF)
	}
	if b[0] > 1 {
		return nil, fmt.Errorf("%w: flag 0x%02x", ErrBadRecord, b[0])
	}
	isV6 := b[0] == 1
	b = b[1:]
	n := 4
	if isV6 {
		n = 16
	}
	need := 2*n + 2 + 2 + 1 + 4*8
	if len(b) < need {
		return nil, fmt.Errorf("export: record body: %w", io.ErrUnexpectedEOF)
	}
	r.Key = packet.FlowKey{IsV6: isV6}
	copy(r.Key.SrcIP[:n], b[:n])
	copy(r.Key.DstIP[:n], b[n:2*n])
	b = b[2*n:]
	r.Key.SrcPort = binary.BigEndian.Uint16(b[0:2])
	r.Key.DstPort = binary.BigEndian.Uint16(b[2:4])
	r.Key.Proto = b[4]
	b = b[5:]
	r.Pkts = math.Float64frombits(binary.BigEndian.Uint64(b[0:8]))
	r.Bytes = math.Float64frombits(binary.BigEndian.Uint64(b[8:16]))
	r.FirstSeen = int64(binary.BigEndian.Uint64(b[16:24]))
	r.LastUpdate = int64(binary.BigEndian.Uint64(b[24:32]))
	return b[32:], nil
}

// decodeRecords decodes the count records that must fill payload exactly,
// handing each to fn. The pointee is reused between calls.
func decodeRecords(payload []byte, count uint32, fn func(*Record)) error {
	var rec Record
	rest := payload
	for i := uint32(0); i < count; i++ {
		var err error
		if rest, err = decodeRecord(&rec, rest); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		fn(&rec)
	}
	if len(rest) != 0 {
		return fmt.Errorf("export: %d trailing payload bytes", len(rest))
	}
	return nil
}

// WriteBatch frames and writes one batch:
//
//	v1: magic(4) version(1) epoch(8) count(4) payloadLen(4) payload crc32(4)
//	v2: magic(4) version(1) siteLen(1) site epoch(8) count(4) payloadLen(4) payload crc32(4)
//
// Version 2 is emitted only when the batch carries a site ID; its CRC
// covers the site bytes as well as the payload, so a corrupted site
// cannot silently misattribute a frame.
func WriteBatch(w io.Writer, b Batch) error {
	if len(b.Records) > maxBatchRecords {
		return fmt.Errorf("%w (%d records)", ErrOversized, len(b.Records))
	}
	if err := ValidateSite(b.Site); err != nil {
		return err
	}
	payload := make([]byte, 0, len(b.Records)*46)
	for i := range b.Records {
		payload = appendRecord(payload, &b.Records[i])
	}

	hdr := make([]byte, 0, 22+len(b.Site))
	hdr = binary.BigEndian.AppendUint32(hdr, batchMagic)
	crc := uint32(0)
	if b.Site == "" {
		hdr = append(hdr, version)
	} else {
		hdr = append(hdr, versionSited, byte(len(b.Site)))
		hdr = append(hdr, b.Site...)
		crc = crc32.Update(crc, crc32.IEEETable, hdr[5:])
	}
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(b.Epoch))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(b.Records)))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("batch header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("batch payload: %w", err)
	}
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc32.Update(crc, crc32.IEEETable, payload))
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("batch checksum: %w", err)
	}
	return nil
}

// eofToUnexpected maps a clean EOF hit mid-frame to io.ErrUnexpectedEOF:
// once the magic has been consumed, running out of bytes is a truncation,
// not a stream end.
func eofToUnexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readPayload reads exactly n bytes, growing the buffer in readChunk
// steps so memory tracks bytes actually delivered rather than the claimed
// length. A stream that ends early fails with io.ErrUnexpectedEOF.
func readPayload(r io.Reader, n uint32) ([]byte, error) {
	buf := make([]byte, 0, min(int(n), readChunk))
	for remaining := int(n); remaining > 0; {
		step := min(remaining, readChunk)
		off := len(buf)
		if cap(buf) < off+step {
			grown := make([]byte, off+step, max(off+step, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		} else {
			buf = buf[:off+step]
		}
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		remaining -= step
	}
	return buf, nil
}

// batchHeader is a frame's header, decoded and bounds-checked.
type batchHeader struct {
	epoch      int64
	site       string
	count      uint32
	payloadLen uint32
	crc        uint32 // CRC state the payload continues: the v2 site bytes, 0 for v1
}

// readBatchHeader reads a frame up to its payload, accepting both wire
// versions, and rejects a count over the batch limit or a payload length
// the count cannot produce. io.EOF is returned verbatim at a clean stream
// end.
func readBatchHeader(r io.Reader) (batchHeader, error) {
	var h batchHeader
	var pre [5]byte // magic + version
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return h, io.EOF
		}
		return h, fmt.Errorf("batch header: %w", err)
	}
	if binary.BigEndian.Uint32(pre[0:4]) != batchMagic {
		return h, ErrBadMagic
	}
	switch pre[4] {
	case version:
	case versionSited:
		var siteLen [1]byte
		if _, err := io.ReadFull(r, siteLen[:]); err != nil {
			return h, fmt.Errorf("batch site length: %w", eofToUnexpected(err))
		}
		if siteLen[0] == 0 || int(siteLen[0]) > MaxSiteLen {
			return h, fmt.Errorf("%w: length %d", ErrBadSite, siteLen[0])
		}
		siteBytes := make([]byte, siteLen[0])
		if _, err := io.ReadFull(r, siteBytes); err != nil {
			return h, fmt.Errorf("batch site: %w", eofToUnexpected(err))
		}
		h.site = string(siteBytes)
		if err := ValidateSite(h.site); err != nil {
			return h, err
		}
		h.crc = crc32.Update(h.crc, crc32.IEEETable, siteLen[:])
		h.crc = crc32.Update(h.crc, crc32.IEEETable, siteBytes)
	default:
		return h, fmt.Errorf("%w: %d", ErrBadVersion, pre[4])
	}
	var hdr [16]byte // epoch + count + payloadLen
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return h, fmt.Errorf("batch header: %w", eofToUnexpected(err))
	}
	h.epoch = int64(binary.BigEndian.Uint64(hdr[0:8]))
	h.count = binary.BigEndian.Uint32(hdr[8:12])
	h.payloadLen = binary.BigEndian.Uint32(hdr[12:16])
	if h.count > maxBatchRecords {
		return h, ErrOversized
	}
	if uint64(h.payloadLen) < uint64(h.count)*recordMinBytes ||
		uint64(h.payloadLen) > uint64(h.count)*recordMaxBytes {
		return h, fmt.Errorf("%w: count=%d payload=%d", ErrFrameLength, h.count, h.payloadLen)
	}
	return h, nil
}

// ReadBatch reads one framed batch, accepting both wire versions: the
// original version-1 frame and the fleet version-2 frame carrying a site
// ID. io.EOF is returned verbatim at a clean stream end.
func ReadBatch(r io.Reader) (Batch, error) {
	h, err := readBatchHeader(r)
	if err != nil {
		return Batch{}, err
	}
	payload, err := readPayload(r, h.payloadLen)
	if err != nil {
		return Batch{}, fmt.Errorf("batch payload: %w", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return Batch{}, fmt.Errorf("batch checksum: %w", eofToUnexpected(err))
	}
	if crc32.Update(h.crc, crc32.IEEETable, payload) != binary.BigEndian.Uint32(crc[:]) {
		return Batch{}, ErrChecksum
	}
	b := Batch{Epoch: h.epoch, Site: h.site, Records: make([]Record, 0, h.count)}
	if err := decodeRecords(payload, h.count, func(rec *Record) {
		b.Records = append(b.Records, *rec)
	}); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// TableStats is the WSAF activity summary a snapshot may carry in its
// trailer, distinguishing second-chance evictions of live flows from
// inline TTL expirations (reclaims) — the two ways an entry leaves the
// table, which pre-trailer snapshots conflated.
type TableStats struct {
	Updates     uint64
	Inserts     uint64
	Expirations uint64 // TTL-expired entries reclaimed during probing
	Evictions   uint64 // live entries displaced by the clock policy
	Drops       uint64
}

// WriteSnapshot persists records as a snapshot file (same record codec,
// snapshot magic) for long-term archival of a measurement window.
func WriteSnapshot(w io.Writer, epoch int64, records []Record) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], snapshotMagic)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot magic: %w", err)
	}
	return WriteBatch(w, Batch{Epoch: epoch, Records: records})
}

// WriteSnapshotStats is WriteSnapshot plus a CRC-protected stats trailer:
//
//	magic(4) updates(8) inserts(8) expirations(8) evictions(8) drops(8) crc32(4)
//
// Readers that predate the trailer stop at the batch and are unaffected.
func WriteSnapshotStats(w io.Writer, epoch int64, records []Record, stats TableStats) error {
	if err := WriteSnapshot(w, epoch, records); err != nil {
		return err
	}
	payload := make([]byte, 0, 40)
	for _, v := range []uint64{stats.Updates, stats.Inserts, stats.Expirations, stats.Evictions, stats.Drops} {
		payload = binary.BigEndian.AppendUint64(payload, v)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], trailerMagic)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot trailer magic: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("snapshot trailer: %w", err)
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("snapshot trailer checksum: %w", err)
	}
	return nil
}

// readSnapshotMagic consumes and checks a snapshot's leading magic.
func readSnapshotMagic(r io.Reader) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("snapshot magic: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[:]) != snapshotMagic {
		return ErrBadMagic
	}
	return nil
}

// ReadSnapshot loads a snapshot file written by WriteSnapshot (any stats
// trailer is left unread).
func ReadSnapshot(r io.Reader) (Batch, error) {
	if err := readSnapshotMagic(r); err != nil {
		return Batch{}, err
	}
	return ReadBatch(r)
}

// ReadSnapshotStats loads a snapshot and, when present, its stats
// trailer; hasStats reports whether the file carried one (older
// snapshots end at the batch).
func ReadSnapshotStats(r io.Reader) (b Batch, stats TableStats, hasStats bool, err error) {
	b, err = ReadSnapshot(r)
	if err != nil {
		return Batch{}, TableStats{}, false, err
	}
	stats, hasStats, err = readTrailer(r)
	if err != nil {
		return Batch{}, TableStats{}, false, err
	}
	return b, stats, hasStats, nil
}

// DecodeSnapshotStats is ReadSnapshotStats over a snapshot already in
// memory: every check is the same — magics, version, site, the record
// limit, the count/length cross-check, the batch CRC, each record's
// bounds, no trailing payload, the trailer CRC — but the payload is read
// where it lies and each record is handed to fn as it is decoded (the
// pointee reused between calls) instead of being collected, so a caller
// that folds records into a table never holds a []Record. fn has seen the
// records ahead of a malformed one by the time the error is returned.
func DecodeSnapshotStats(snap []byte, fn func(*Record)) (epoch int64, stats TableStats, hasStats bool, err error) {
	r := bytes.NewReader(snap)
	if err := readSnapshotMagic(r); err != nil {
		return 0, TableStats{}, false, err
	}
	h, err := readBatchHeader(r)
	if err != nil {
		return 0, TableStats{}, false, err
	}
	rest := snap[len(snap)-r.Len():]
	if uint64(len(rest)) < uint64(h.payloadLen) {
		return 0, TableStats{}, false, fmt.Errorf("batch payload: %w", io.ErrUnexpectedEOF)
	}
	payload, rest := rest[:h.payloadLen], rest[h.payloadLen:]
	if len(rest) < 4 {
		return 0, TableStats{}, false, fmt.Errorf("batch checksum: %w", io.ErrUnexpectedEOF)
	}
	if crc32.Update(h.crc, crc32.IEEETable, payload) != binary.BigEndian.Uint32(rest[:4]) {
		return 0, TableStats{}, false, ErrChecksum
	}
	if err := decodeRecords(payload, h.count, fn); err != nil {
		return 0, TableStats{}, false, err
	}
	stats, hasStats, err = readTrailer(bytes.NewReader(rest[4:]))
	if err != nil {
		return 0, TableStats{}, false, err
	}
	return h.epoch, stats, hasStats, nil
}

// readTrailer reads the stats trailer that may follow a snapshot's batch.
// A clean EOF in its place is a snapshot written without one.
func readTrailer(r io.Reader) (stats TableStats, hasStats bool, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return TableStats{}, false, nil
		}
		return TableStats{}, false, fmt.Errorf("snapshot trailer magic: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[:]) != trailerMagic {
		return TableStats{}, false, ErrBadMagic
	}
	var body [44]byte
	if _, err := io.ReadFull(r, body[:]); err != nil {
		return TableStats{}, false, fmt.Errorf("snapshot trailer: %w", err)
	}
	payload := body[:40]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(body[40:44]) {
		return TableStats{}, false, ErrChecksum
	}
	stats.Updates = binary.BigEndian.Uint64(payload[0:8])
	stats.Inserts = binary.BigEndian.Uint64(payload[8:16])
	stats.Expirations = binary.BigEndian.Uint64(payload[16:24])
	stats.Evictions = binary.BigEndian.Uint64(payload[24:32])
	stats.Drops = binary.BigEndian.Uint64(payload[32:40])
	return stats, true, nil
}
