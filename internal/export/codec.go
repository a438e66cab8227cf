// Package export implements the delegation architecture the paper
// contrasts InstaMeasure against — and that InstaMeasure itself still
// needs for archival: periodically shipping WSAF flow records to a remote
// collector. It provides a compact length-prefixed, CRC-protected binary
// codec for flow records, snapshot files for long-term storage (the
// paper's "analyze flow behavior for long-term measurement"), a TCP
// exporter/collector pair used to measure real delegation latency, and
// Merge, the delegation side's additive flow table.
package export

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

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
//
// A Collector lends the Records of the Batch it hands its callbacks: the
// next frame's decode overwrites them, so they are valid only until the
// callback returns, and a consumer that keeps a record copies it.
type Batch struct {
	Epoch   int64
	Site    string
	Records []Record
}

// tailBytes is a record past its addresses: ports, proto, 4 counters.
const tailBytes = 4 + 1 + 4*8

// putRecord encodes r at the front of b and returns its length: 1 flag
// byte, addresses (4+4 or 16+16), ports, proto, then the four fixed
// counters. Every field sits at a fixed offset, so a v4 address is one
// 4-byte load and store. b must have room for the record.
func putRecord(b []byte, r *Record) int {
	k, n := &r.Key, recordMinBytes
	if !k.IsV6 {
		b[0] = 0
		*(*[4]byte)(b[1:5]) = [4]byte(k.SrcIP[:4])
		*(*[4]byte)(b[5:9]) = [4]byte(k.DstIP[:4])
	} else {
		n = recordMaxBytes
		b[0] = 1
		*(*[16]byte)(b[1:17]) = k.SrcIP
		*(*[16]byte)(b[17:33]) = k.DstIP
	}
	t := b[n-tailBytes:][:tailBytes]
	binary.BigEndian.PutUint16(t[0:2], k.SrcPort)
	binary.BigEndian.PutUint16(t[2:4], k.DstPort)
	t[4] = k.Proto
	binary.BigEndian.PutUint64(t[5:13], math.Float64bits(r.Pkts))
	binary.BigEndian.PutUint64(t[13:21], math.Float64bits(r.Bytes))
	binary.BigEndian.PutUint64(t[21:29], uint64(r.FirstSeen))
	binary.BigEndian.PutUint64(t[29:37], uint64(r.LastUpdate))
	return n
}

// decodeRecord decodes one record from b into r, overwriting all of it,
// and returns the remainder. It reads the fixed offsets putRecord writes.
func decodeRecord(r *Record, b []byte) ([]byte, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("export: record flag: %w", io.ErrUnexpectedEOF)
	}
	if b[0] > 1 {
		return nil, fmt.Errorf("%w: flag 0x%02x", ErrBadRecord, b[0])
	}
	n := recordMinBytes + int(b[0])*(recordMaxBytes-recordMinBytes) // flag 1: v6 addresses
	if len(b) < n {
		return nil, fmt.Errorf("export: record body: %w", io.ErrUnexpectedEOF)
	}
	r.Key = packet.FlowKey{IsV6: b[0] == 1}
	if !r.Key.IsV6 {
		*(*[4]byte)(r.Key.SrcIP[:4]) = [4]byte(b[1:5])
		*(*[4]byte)(r.Key.DstIP[:4]) = [4]byte(b[5:9])
	} else {
		r.Key.SrcIP = [16]byte(b[1:17])
		r.Key.DstIP = [16]byte(b[17:33])
	}
	t := b[n-tailBytes:][:tailBytes]
	r.Key.SrcPort = binary.BigEndian.Uint16(t[0:2])
	r.Key.DstPort = binary.BigEndian.Uint16(t[2:4])
	r.Key.Proto = t[4]
	r.Pkts = math.Float64frombits(binary.BigEndian.Uint64(t[5:13]))
	r.Bytes = math.Float64frombits(binary.BigEndian.Uint64(t[13:21]))
	r.FirstSeen = int64(binary.BigEndian.Uint64(t[21:29]))
	r.LastUpdate = int64(binary.BigEndian.Uint64(t[29:37]))
	return b[n:], nil
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

// AppendBatch appends b's frame to dst and returns the extended buffer:
//
//	v1: magic(4) version(1) epoch(8) count(4) payloadLen(4) payload crc32(4)
//	v2: magic(4) version(1) siteLen(1) site epoch(8) count(4) payloadLen(4) payload crc32(4)
//
// Version 2 is emitted only when the batch carries a site ID; its CRC
// covers the site bytes as well as the payload, so a corrupted site
// cannot silently misattribute a frame. On error dst is returned as it
// was.
func AppendBatch(dst []byte, b Batch) ([]byte, error) {
	if len(b.Records) > maxBatchRecords {
		return dst, fmt.Errorf("%w (%d records)", ErrOversized, len(b.Records))
	}
	if err := ValidateSite(b.Site); err != nil {
		return dst, err
	}
	payloadLen := len(b.Records) * recordMinBytes
	for i := range b.Records {
		if b.Records[i].Key.IsV6 {
			payloadLen += recordMaxBytes - recordMinBytes
		}
	}
	// 64 spare bytes take what a snapshot or a store record appends after.
	dst = slices.Grow(dst, 22+len(b.Site)+payloadLen+4+64)
	dst = binary.BigEndian.AppendUint32(dst, batchMagic)
	crc := uint32(0)
	if b.Site == "" {
		dst = append(dst, version)
	} else {
		dst = append(dst, versionSited, byte(len(b.Site)))
		dst = append(dst, b.Site...)
		crc = crc32.Update(crc, crc32.IEEETable, dst[len(dst)-1-len(b.Site):])
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(b.Epoch))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Records)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(payloadLen))
	off := len(dst)
	dst = dst[:off+payloadLen]
	payload := dst[off:]
	for i := range b.Records {
		off += putRecord(dst[off:], &b.Records[i])
	}
	return binary.BigEndian.AppendUint32(dst, crc32.Update(crc, crc32.IEEETable, payload)), nil
}

// framePool holds the buffers WriteBatch and the snapshot writer encode
// into, so a frame costs no allocation once a buffer of its size exists.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// writeFrame encodes a frame with enc into a pooled buffer and writes it.
func writeFrame(w io.Writer, enc func([]byte) ([]byte, error)) error {
	buf := framePool.Get().(*[]byte)
	defer framePool.Put(buf)
	var err error
	if *buf, err = enc((*buf)[:0]); err == nil {
		_, err = w.Write(*buf)
	}
	return err
}

// WriteBatch frames b as AppendBatch does and writes it with one Write.
func WriteBatch(w io.Writer, b Batch) error {
	return writeFrame(w, func(dst []byte) ([]byte, error) { return AppendBatch(dst, b) })
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

// batchHeader is a frame's header, decoded and bounds-checked.
type batchHeader struct {
	epoch      int64
	site       string
	count      uint32
	payloadLen uint32
	crc        uint32 // CRC state the payload continues: the v2 site bytes, 0 for v1
}

// BatchReader reads framed batches into a body buffer and a record array
// it keeps from frame to frame, so a warm read allocates nothing.
type BatchReader struct {
	hdr     [4 + 1 + 1 + MaxSiteLen + 16]byte // magic version [siteLen site] epoch count payloadLen
	site    string                            // the last v2 frame's site
	body    []byte                            // payload + CRC
	records []Record
}

// ReadBatch reads one framed batch, version 1 or the fleet's site-carrying
// version 2, through a one-shot BatchReader, so the batch owns its
// records. io.EOF is returned verbatim at a clean stream end.
func ReadBatch(r io.Reader) (Batch, error) {
	var br BatchReader
	return br.Read(r)
}

// Read reads and checks one framed batch from r, as ReadBatch does. The
// batch's Records live in br's array: they are valid until the next Read.
func (br *BatchReader) Read(r io.Reader) (Batch, error) {
	h, err := br.readHeader(r)
	if err != nil {
		return Batch{}, err
	}
	body, err := br.readBody(r, int(h.payloadLen)+4)
	if err != nil {
		return Batch{}, fmt.Errorf("batch body: %w", err)
	}
	payload := body[:h.payloadLen]
	if crc32.Update(h.crc, crc32.IEEETable, payload) != binary.BigEndian.Uint32(body[h.payloadLen:]) {
		return Batch{}, ErrChecksum
	}
	br.records = slices.Grow(br.records[:0], int(h.count))[:h.count]
	for i := range br.records {
		if payload, err = decodeRecord(&br.records[i], payload); err != nil {
			return Batch{}, fmt.Errorf("record %d: %w", i, err)
		}
	}
	if len(payload) != 0 {
		return Batch{}, fmt.Errorf("export: %d trailing payload bytes", len(payload))
	}
	return Batch{Epoch: h.epoch, Site: h.site, Records: br.records}, nil
}

// readHeader reads a frame up to its payload, accepting both wire
// versions, and rejects a count over the batch limit or a payload length
// the count cannot produce. io.EOF is returned verbatim at a clean stream
// end.
func (br *BatchReader) readHeader(r io.Reader) (batchHeader, error) {
	var h batchHeader
	buf := &br.hdr
	if _, err := io.ReadFull(r, buf[:5]); err != nil {
		if errors.Is(err, io.EOF) {
			return h, io.EOF
		}
		return h, fmt.Errorf("batch header: %w", err)
	}
	if binary.BigEndian.Uint32(buf[0:4]) != batchMagic {
		return h, ErrBadMagic
	}
	off := 5 // where epoch, count and payloadLen start
	switch buf[4] {
	case version:
	case versionSited:
		if _, err := io.ReadFull(r, buf[5:6]); err != nil {
			return h, fmt.Errorf("batch site length: %w", eofToUnexpected(err))
		}
		siteLen := int(buf[5])
		if siteLen == 0 || siteLen > MaxSiteLen {
			return h, fmt.Errorf("%w: length %d", ErrBadSite, siteLen)
		}
		site := buf[6 : 6+siteLen]
		if _, err := io.ReadFull(r, site); err != nil {
			return h, fmt.Errorf("batch site: %w", eofToUnexpected(err))
		}
		if string(site) != br.site { // a connection's frames repeat one site
			br.site = string(site)
		}
		h.site = br.site
		if err := ValidateSite(h.site); err != nil {
			return h, err
		}
		h.crc = crc32.Update(h.crc, crc32.IEEETable, buf[5:6+siteLen])
		off = 6 + siteLen
	default:
		return h, fmt.Errorf("%w: %d", ErrBadVersion, buf[4])
	}
	hdr := buf[off : off+16]
	if _, err := io.ReadFull(r, hdr); err != nil {
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

// readBody reads exactly n bytes into br's body buffer, what fits its
// capacity in one go. Past that it grows only when full, doubling (by
// readChunk at least, never past n): memory tracks the bytes delivered,
// not a header's claim. An early end is io.ErrUnexpectedEOF.
func (br *BatchReader) readBody(r io.Reader, n int) ([]byte, error) {
	buf := br.body[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, len(buf)+min(n-len(buf), max(readChunk, cap(buf)))), buf...)
		}
		off := len(buf)
		buf = buf[:min(n, cap(buf))]
		_, err := io.ReadFull(r, buf[off:])
		br.body = buf
		if err != nil {
			return nil, eofToUnexpected(err)
		}
	}
	return buf, nil
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
	Drops       uint64 // zero by construction (wsaf.Stats.Drops); kept in the wire format
}

// AppendSnapshotStats appends a snapshot file with a CRC-protected stats
// trailer after the batch:
//
//	magic(4) updates(8) inserts(8) expirations(8) evictions(8) drops(8) crc32(4)
//
// Readers that predate the trailer stop at the batch and are unaffected.
// On error dst is returned as it was.
func AppendSnapshotStats(dst []byte, epoch int64, records []Record, stats TableStats) ([]byte, error) {
	out, err := AppendBatch(binary.BigEndian.AppendUint32(dst, snapshotMagic), Batch{Epoch: epoch, Records: records})
	if err != nil {
		return dst, err
	}
	out = binary.BigEndian.AppendUint32(out, trailerMagic)
	start := len(out)
	for _, v := range [...]uint64{stats.Updates, stats.Inserts, stats.Expirations, stats.Evictions, stats.Drops} {
		out = binary.BigEndian.AppendUint64(out, v)
	}
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:])), nil
}

// WriteSnapshotStats writes the snapshot AppendSnapshotStats encodes with
// one Write.
func WriteSnapshotStats(w io.Writer, epoch int64, records []Record, stats TableStats) error {
	return writeFrame(w, func(dst []byte) ([]byte, error) {
		return AppendSnapshotStats(dst, epoch, records, stats)
	})
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

// ReadSnapshot loads a snapshot file's batch (any stats trailer is left
// unread).
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
	h, err := new(BatchReader).readHeader(r)
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
