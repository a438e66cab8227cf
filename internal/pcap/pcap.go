// Package pcap reads and writes classic libpcap capture files (the format
// tcpdump -w produces) using only the standard library. The reproduction
// uses it in place of gopacket: synthetic traces can be written to real
// pcap files and replayed through the same parsing path a live capture
// would take.
//
// Supported: both byte orders, microsecond and nanosecond timestamp magic,
// link types Ethernet (DLT_EN10MB) and raw IP (DLT_RAW).
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// LinkType identifies the capture's link layer.
type LinkType uint32

// Link types understood by the reader.
const (
	LinkEthernet LinkType = 1   // DLT_EN10MB
	LinkRaw      LinkType = 101 // DLT_RAW (bare IP)
)

// Magic numbers.
const (
	magicMicros = 0xA1B2C3D4
	magicNanos  = 0xA1B23C4D
)

const (
	// readChunk bounds each body-read allocation step: a record header
	// lying about its length on a truncated stream costs at most one
	// chunk of memory before the read fails, not the full claimed size.
	readChunk = 1 << 16

	// maxRecordBytes is the absolute sanity cap applied when the capture
	// declares no snap length; no supported link layer produces frames
	// anywhere near this large, so a bigger claim is a corrupt header.
	maxRecordBytes = 1 << 28
)

// Errors returned by the reader.
var (
	ErrBadMagic   = errors.New("pcap: unrecognized magic number")
	ErrSnapLen    = errors.New("pcap: record exceeds snap length")
	ErrCorruptHdr = errors.New("pcap: corrupt record header")
)

// Record is one captured frame: timestamp in nanoseconds since the Unix
// epoch, the original wire length, and the (possibly snapped) frame bytes.
type Record struct {
	TS      int64
	WireLen int
	Data    []byte
}

// Reader streams records from a pcap file. Record bodies are read into its
// one buffer, so Next allocates nothing once that has grown to fit.
type Reader struct {
	r         *bufio.Reader
	bigEndian bool
	nanos     bool
	linkType  LinkType
	snapLen   uint32
	// hdr is the record-header scratch: a local in Next escapes into the
	// reader it is handed to, one malloc per record.
	hdr [16]byte
	buf []byte
}

// NewReader parses the pcap global header from r and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("global header: %w", err)
	}

	var (
		order binary.ByteOrder
		nanos bool
	)
	switch le := binary.LittleEndian.Uint32(hdr[0:4]); le {
	case magicMicros:
		order = binary.LittleEndian
	case magicNanos:
		order, nanos = binary.LittleEndian, true
	default:
		switch be := binary.BigEndian.Uint32(hdr[0:4]); be {
		case magicMicros:
			order = binary.BigEndian
		case magicNanos:
			order, nanos = binary.BigEndian, true
		default:
			return nil, fmt.Errorf("%w: 0x%08x", ErrBadMagic, le)
		}
	}

	return &Reader{
		r:         br,
		bigEndian: order == binary.BigEndian,
		nanos:     nanos,
		linkType:  LinkType(order.Uint32(hdr[20:24])),
		snapLen:   order.Uint32(hdr[16:20]),
	}, nil
}

// LinkType returns the capture's link type.
func (r *Reader) LinkType() LinkType { return r.linkType }

// SnapLen returns the capture's snap length.
func (r *Reader) SnapLen() int { return int(r.snapLen) }

// readFull is io.ReadFull on the concrete bufio.Reader: the two reads per
// record stay direct calls instead of going through an io.Reader interface.
func (r *Reader) readFull(p []byte) error {
	for got := 0; got < len(p); {
		n, err := r.r.Read(p[got:])
		if got += n; err != nil && got < len(p) {
			if got > 0 && errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Next returns the next record. The record's Data slice aliases the
// Reader's buffer and is valid only until the next call to Next; copy it
// if it must outlive that. At end of file it returns io.EOF.
func (r *Reader) Next() (Record, error) {
	hdr := r.hdr[:]
	if err := r.readFull(hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("record header: %w", err)
	}
	// Concrete byte orders: a binary.ByteOrder field costs four dynamic
	// calls per record.
	le, be := binary.LittleEndian, binary.BigEndian
	sec, sub := le.Uint32(hdr[0:4]), le.Uint32(hdr[4:8])
	inclLen, origLen := le.Uint32(hdr[8:12]), le.Uint32(hdr[12:16])
	if r.bigEndian {
		sec, sub = be.Uint32(hdr[0:4]), be.Uint32(hdr[4:8])
		inclLen, origLen = be.Uint32(hdr[8:12]), be.Uint32(hdr[12:16])
	}

	if r.snapLen > 0 && inclLen > r.snapLen {
		return Record{}, fmt.Errorf("%w: incl=%d snap=%d", ErrSnapLen, inclLen, r.snapLen)
	}
	if inclLen > origLen {
		return Record{}, fmt.Errorf("%w: incl=%d orig=%d", ErrCorruptHdr, inclLen, origLen)
	}
	if r.snapLen == 0 && inclLen > maxRecordBytes {
		return Record{}, fmt.Errorf("%w: incl=%d exceeds %d-byte cap", ErrCorruptHdr, inclLen, maxRecordBytes)
	}

	// Read the body in chunks so the buffer only grows as bytes actually
	// arrive; a truncated stream fails after at most one readChunk
	// allocation regardless of the claimed length.
	r.buf = r.buf[:0]
	for remaining := int(inclLen); remaining > 0; {
		n := min(remaining, readChunk)
		off := len(r.buf)
		if cap(r.buf) < off+n {
			grown := make([]byte, off+n, max(off+n, 2*cap(r.buf)))
			copy(grown, r.buf)
			r.buf = grown
		} else {
			r.buf = r.buf[:off+n]
		}
		if err := r.readFull(r.buf[off:]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return Record{}, fmt.Errorf("record body: %w", err)
		}
		remaining -= n
	}

	ts := int64(sec) * 1e9
	if r.nanos {
		ts += int64(sub)
	} else {
		ts += int64(sub) * 1e3
	}
	return Record{TS: ts, WireLen: int(origLen), Data: r.buf}, nil
}

// Writer streams records to a pcap file in little-endian, nanosecond-
// timestamp format.
type Writer struct {
	w       *bufio.Writer
	snapLen uint32
	wrote   bool
	link    LinkType
}

// NewWriter returns a Writer that will emit a capture of the given link
// type and snap length (0 means 65535).
func NewWriter(w io.Writer, link LinkType, snapLen int) *Writer {
	if snapLen <= 0 {
		snapLen = 65535
	}
	return &Writer{
		w:       bufio.NewWriterSize(w, 1<<16),
		snapLen: uint32(snapLen),
		link:    link,
	}
}

// Write appends one record. ts is nanoseconds since the Unix epoch; wireLen
// is the original frame length (>= len(data)).
func (w *Writer) Write(ts int64, wireLen int, data []byte) error {
	if !w.wrote {
		if err := w.writeGlobalHeader(); err != nil {
			return err
		}
		w.wrote = true
	}
	if uint32(len(data)) > w.snapLen {
		data = data[:w.snapLen]
	}
	if wireLen < len(data) {
		wireLen = len(data)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ts/1e9))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(ts%1e9))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(wireLen))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("record body: %w", err)
	}
	return nil
}

// Flush writes buffered data to the underlying writer. An empty capture
// still gets a valid global header.
func (w *Writer) Flush() error {
	if !w.wrote {
		if err := w.writeGlobalHeader(); err != nil {
			return err
		}
		w.wrote = true
	}
	return w.w.Flush()
}

func (w *Writer) writeGlobalHeader() error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicNanos)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // version minor
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], w.snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(w.link))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("global header: %w", err)
	}
	return nil
}
