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
	// blockSize is what the Reader's buffer doubles up to while reads keep
	// filling it, and so the most NextBlock hands over at once. 256 KiB to
	// 1 MiB measured alike, 2 MiB slower (DESIGN §5k).
	blockSize = 1 << 19

	// readChunk is the buffer's first size, and the step a record larger
	// than blockSize grows it by: a record header lying about its length
	// on a truncated stream costs at most one chunk beyond the bytes that
	// arrived, not the full claimed size.
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

// Block is a run of whole records in stream order: Frames locate them in
// Data.
type Block struct {
	Data   []byte
	Frames []Frame
}

// Frame is one record of a Block: its timestamp in nanoseconds since the
// Unix epoch, its captured bytes Data[Off:Off+Incl], its wire length.
type Frame struct {
	TS                 int64
	Off, Incl, WireLen uint32
}

// Reader streams records from a pcap file. It reads raw bytes into one
// buffer and walks the record headers in place: Next is one record of it,
// NextBlock every whole record it holds. Neither allocates once the buffer
// is sized.
type Reader struct {
	r         io.Reader
	bigEndian bool
	nanos     bool
	linkType  LinkType
	snapLen   uint32
	buf       []byte // buf[off:end] is read and not yet returned
	off, end  int
	err       error // the underlying reader's error, once it has failed
}

// NewReader parses the pcap global header from r and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	pr := &Reader{r: r, buf: make([]byte, readChunk)}
	if !pr.fill(24) {
		return nil, fmt.Errorf("global header: %w", pr.short())
	}
	hdr := pr.buf[:24]
	pr.off = 24

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
	pr.bigEndian, pr.nanos = order == binary.BigEndian, nanos
	pr.linkType = LinkType(order.Uint32(hdr[20:24]))
	pr.snapLen = order.Uint32(hdr[16:20])
	return pr, nil
}

// LinkType returns the capture's link type.
func (r *Reader) LinkType() LinkType { return r.linkType }

// SnapLen returns the capture's snap length.
func (r *Reader) SnapLen() int { return int(r.snapLen) }

// fill reads until n bytes past off are buffered, one r.Read at a time so
// a live pipe's record is returned as soon as it has arrived, or until the
// underlying reader fails (false; the error is r.err). A buffer the reads
// fill doubles up to blockSize, then has its unread bytes moved to the
// front, or, when one record fills it, grows by readChunk.
func (r *Reader) fill(n int) bool {
	for r.end-r.off < n {
		if r.err != nil {
			return false
		}
		if r.end == len(r.buf) {
			buf := r.buf
			if len(buf) < blockSize || r.off == 0 {
				buf = make([]byte, max(min(2*len(buf), blockSize), len(buf)+readChunk))
			}
			r.end = copy(buf, r.buf[r.off:r.end])
			r.buf, r.off = buf, 0
		}
		m, err := r.r.Read(r.buf[r.end:])
		r.end += m
		r.err = err
	}
	return true
}

// short is the error for a stream that stopped at off: the reader's own,
// with an EOF turned unexpected when it cut a record or header short.
func (r *Reader) short() error {
	if r.end > r.off && errors.Is(r.err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return r.err
}

// scan decodes and validates the record header at buf[at:], buf ending
// with the buffered bytes. next is the offset past the record; past
// len(buf), the record is not all buffered (nor, if f is zero, its header).
func (r *Reader) scan(buf []byte, at int) (f Frame, next int, err error) {
	if len(buf)-at < 16 {
		return Frame{}, at + 16, nil
	}
	hdr := buf[at : at+16]
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
		return Frame{}, 0, fmt.Errorf("%w: incl=%d snap=%d", ErrSnapLen, inclLen, r.snapLen)
	}
	if inclLen > origLen {
		return Frame{}, 0, fmt.Errorf("%w: incl=%d orig=%d", ErrCorruptHdr, inclLen, origLen)
	}
	if r.snapLen == 0 && inclLen > maxRecordBytes {
		return Frame{}, 0, fmt.Errorf("%w: incl=%d exceeds %d-byte cap", ErrCorruptHdr, inclLen, maxRecordBytes)
	}

	ts := int64(sec) * 1e9
	if r.nanos {
		ts += int64(sub)
	} else {
		ts += int64(sub) * 1e3
	}
	return Frame{TS: ts, Off: uint32(at + 16), Incl: inclLen, WireLen: origLen}, at + 16 + int(inclLen), nil
}

// record buffers the next whole record, reading as needed, and consumes
// it; its Off is into r.buf as it is on return.
func (r *Reader) record() (Frame, error) {
	for {
		f, next, err := r.scan(r.buf[:r.end], r.off)
		switch {
		case err != nil:
			return Frame{}, err
		case next <= r.end:
			r.off = next
			return f, nil
		case !r.fill(next - r.off):
			if err = r.short(); errors.Is(err, io.EOF) {
				return Frame{}, io.EOF
			} else if f.Off == 0 {
				return Frame{}, fmt.Errorf("record header: %w", err)
			}
			return Frame{}, fmt.Errorf("record body: %w", err)
		}
	}
}

// Next returns the next record. The record's Data slice points into the
// Reader's buffer and is valid only until the next Next or NextBlock; copy
// it if it must outlive that. At end of file it returns io.EOF.
func (r *Reader) Next() (Record, error) {
	f, err := r.record()
	if err != nil {
		return Record{}, err
	}
	end := f.Off + f.Incl
	return Record{TS: f.TS, WireLen: int(f.WireLen), Data: r.buf[f.Off:end:end]}, nil
}

// NextBlock hands every whole record the Reader holds over to b, reading
// first only if it holds none: the Reader's buffer becomes b.Data, and b's
// old Data, if large enough, its next buffer, so a caller that recycles
// Blocks neither allocates nor copies. A header failing validation ends
// the block and is the next call's error. On any error b is unchanged.
func (r *Reader) NextBlock(b *Block) error {
	f, err := r.record()
	if err != nil {
		return err
	}
	frames := append(b.Frames[:0], f)
	buf, at := r.buf[:r.end], r.off
	for {
		f, next, err := r.scan(buf, at)
		if err != nil || next > len(buf) {
			break
		}
		frames = append(frames, f)
		at = next
	}
	// Each buffer doubles the last, up to blockSize.
	size := max(min(2*len(r.buf), blockSize), r.end-at)
	spare := b.Data[:cap(b.Data)]
	if len(spare) < size {
		spare = make([]byte, size)
	}
	b.Data, b.Frames = r.buf[:at], frames
	r.buf, r.end, r.off = spare, copy(spare, r.buf[at:r.end]), 0
	return nil
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
