// Package export is a wirebound golden fixture. Its synthetic import
// path ends in "export", one of the decode-path scopes.
package export

import (
	"encoding/binary"
	"io"
	"slices"
)

const maxRecords = 1 << 20

// DecodeUnchecked trusts the wire count straight into the allocator —
// the pre-PR-3 bug shape.
func DecodeUnchecked(r io.Reader) ([]uint64, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.BigEndian.Uint32(hdr[0:4])
	out := make([]uint64, count) // want `wire-derived length count \(from binary\.BigEndian\.Uint32\(hdr\[0:4\]\)\) reaches make without a bounds comparison`
	return out, nil
}

// DecodeChecked caps the count first: the comparison sanitizes it.
func DecodeChecked(r io.Reader) ([]uint64, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.BigEndian.Uint32(hdr[0:4])
	if count > maxRecords {
		return nil, io.ErrUnexpectedEOF
	}
	out := make([]uint64, count)
	return out, nil
}

// DecodeClamped bounds the count with the min builtin instead.
func DecodeClamped(r io.Reader) ([]uint64, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	count := int(binary.BigEndian.Uint32(hdr[0:4]))
	out := make([]uint64, min(count, maxRecords))
	return out, nil
}

// GrowUnchecked sizes a reused array by a wire count it never compared.
func GrowUnchecked(r io.Reader, dst []uint64) ([]uint64, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.BigEndian.Uint32(hdr[:])
	return slices.Grow(dst[:0], int(count)), nil // want `wire-derived length count \(from binary\.BigEndian\.Uint32\(hdr\[:\]\)\) reaches slices\.Grow without a bounds comparison`
}

// GrowChecked compares the count against the protocol limit first.
func GrowChecked(r io.Reader, dst []uint64) ([]uint64, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.BigEndian.Uint32(hdr[:])
	if count > maxRecords {
		return nil, io.ErrUnexpectedEOF
	}
	return slices.Grow(dst[:0], int(count)), nil
}

// PayloadByte indexes with a wire-derived offset, unchecked.
func PayloadByte(r io.Reader) (byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	off := int(binary.BigEndian.Uint16(hdr[0:2]))
	var payload [64]byte
	if _, err := io.ReadFull(r, payload[:]); err != nil {
		return 0, err
	}
	return payload[off], nil // want `wire-derived length off \(from binary\.BigEndian\.Uint16\(hdr\[0:2\]\)\) reaches index expression`
}

// ReadBody slices a fixed buffer with an unchecked wire length.
func ReadBody(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	body := make([]byte, 1024)
	_, err := io.ReadFull(r, body[:n]) // want `wire-derived length n \(from binary\.BigEndian\.Uint32\(hdr\[:4\]\)\) reaches slice bound`
	return body, err
}

// DecodeBlessed is an approved seam: the directive blesses the make.
func DecodeBlessed(r io.Reader) ([]uint64, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.BigEndian.Uint32(hdr[0:4])
	//im:allow wirebound — fixture: the caller bounds the stream length before handing it over
	out := make([]uint64, count)
	return out, nil
}

// EachUnchecked is the in-place, per-record callback decoder shape: the
// frame is already in memory and records are handed out as they are cut
// from it, so there is no allocation to size — the wire's lengths reach
// slice bounds instead. Trusting them is the same bug.
func EachUnchecked(frame []byte, fn func(rec []byte)) {
	payloadLen := binary.BigEndian.Uint32(frame[0:4])
	recLen := int(binary.BigEndian.Uint16(frame[4:6]))
	payload := frame[6 : 6+payloadLen] // want `wire-derived length payloadLen \(from binary\.BigEndian\.Uint32\(frame\[0:4\]\)\) reaches slice bound`
	for len(payload) > 0 {
		fn(payload[:recLen])       // want `wire-derived length recLen \(from binary\.BigEndian\.Uint16\(frame\[4:6\]\)\) reaches slice bound`
		payload = payload[recLen:] // want `wire-derived length recLen .* reaches slice bound`
	}
}

// EachChecked holds both lengths against what is actually there first.
func EachChecked(frame []byte, fn func(rec []byte)) error {
	if len(frame) < 6 {
		return io.ErrUnexpectedEOF
	}
	payloadLen := binary.BigEndian.Uint32(frame[0:4])
	recLen := int(binary.BigEndian.Uint16(frame[4:6]))
	if uint64(len(frame)-6) < uint64(payloadLen) || recLen == 0 || int(payloadLen)%recLen != 0 {
		return io.ErrUnexpectedEOF
	}
	payload := frame[6 : 6+payloadLen]
	for len(payload) > 0 {
		fn(payload[:recLen])
		payload = payload[recLen:]
	}
	return nil
}
