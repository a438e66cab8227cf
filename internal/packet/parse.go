package packet

import "errors"

// Parse errors, the only ones the parsers return. ErrNotIP and
// ErrUnsupportedL4 mark frames the measurement system deliberately skips
// (non-IP ethertypes, L4 protocols without ports); callers match them with
// errors.Is and count the frame instead of failing. They are returned as
// they stand, never wrapped per frame: a skipped frame must not cost more
// than a parsed one, or an ARP flood is the dearest traffic to be fed.
var (
	ErrTruncated     = errors.New("packet: truncated frame")
	ErrNotIP         = errors.New("packet: not an IP frame")
	ErrUnsupportedL4 = errors.New("packet: unsupported L4 protocol")
)

// Ethernet constants.
const (
	etherTypeIPv4  = 0x0800
	etherTypeIPv6  = 0x86DD
	etherTypeVLAN  = 0x8100
	etherHeaderLen = 14
	vlanTagLen     = 4
)

// ParseEthernet extracts the 5-tuple flow key from a raw Ethernet frame.
// wireLen is the original (untruncated) length of the frame on the wire;
// the returned Packet carries wireLen so byte counting reflects actual
// traffic volume even when the capture snapped the payload.
func ParseEthernet(frame []byte, wireLen int, ts int64) (p Packet, err error) {
	if err = p.DecodeEthernet(frame, wireLen, ts); err != nil {
		return Packet{}, err
	}
	return p, nil
}

// ParseIP parses a raw IP packet (no link-layer header), as produced by
// DLT_RAW captures.
func ParseIP(datagram []byte, wireLen int, ts int64) (p Packet, err error) {
	if err = p.DecodeIP(datagram, wireLen, ts); err != nil {
		return Packet{}, err
	}
	return p, nil
}

// DecodeEthernet is ParseEthernet into a slot the caller owns, for bulk
// readers that fill a packet slice in place. On error *p is unspecified.
func (p *Packet) DecodeEthernet(frame []byte, wireLen int, ts int64) error {
	if len(frame) < etherHeaderLen {
		return ErrTruncated
	}
	etherType := uint16(frame[12])<<8 | uint16(frame[13])
	payload := frame[etherHeaderLen:]

	// Unwrap up to two VLAN tags (802.1Q / QinQ).
	for i := 0; i < 2 && etherType == etherTypeVLAN; i++ {
		if len(payload) < vlanTagLen {
			return ErrTruncated
		}
		etherType = uint16(payload[2])<<8 | uint16(payload[3])
		payload = payload[vlanTagLen:]
	}

	switch etherType {
	case etherTypeIPv4:
		return p.decodeIPv4(payload, wireLen, ts)
	case etherTypeIPv6:
		return p.decodeIPv6(payload, wireLen, ts)
	default:
		return ErrNotIP
	}
}

// DecodeIP is ParseIP into a slot the caller owns; see DecodeEthernet.
func (p *Packet) DecodeIP(datagram []byte, wireLen int, ts int64) error {
	if len(datagram) < 1 {
		return ErrTruncated
	}
	switch datagram[0] >> 4 {
	case 4:
		return p.decodeIPv4(datagram, wireLen, ts)
	case 6:
		return p.decodeIPv6(datagram, wireLen, ts)
	default:
		return ErrNotIP
	}
}

func (p *Packet) decodeIPv4(b []byte, wireLen int, ts int64) error {
	if len(b) < 20 {
		return ErrTruncated
	}
	if b[0]>>4 != 4 {
		return ErrNotIP
	}
	ihl := int(b[0]&0x0F) * 4
	if ihl < 20 || len(b) < ihl {
		return ErrTruncated
	}
	proto := b[9]

	*p = Packet{Len: clampLen(wireLen), TS: ts}
	k := &p.Key
	copy(k.SrcIP[:4], b[12:16])
	copy(k.DstIP[:4], b[16:20])
	k.Proto = proto

	// Fragment policy: every fragment of a fragmented datagram — first
	// fragment (MF set, offset 0) included — keys on the 3-tuple with the
	// Fragment marker, so the whole datagram counts under one flow. Keying
	// the first fragment on its 5-tuple while later fragments carry no L4
	// header would split one datagram across two flows.
	fragOffset := (uint16(b[6])&0x1F)<<8 | uint16(b[7])
	moreFrags := b[6]&0x20 != 0
	if fragOffset != 0 || moreFrags {
		p.Fragment = true
		return nil
	}
	return parseL4(k, proto, b[ihl:])
}

func (p *Packet) decodeIPv6(b []byte, wireLen int, ts int64) error {
	if len(b) < 40 {
		return ErrTruncated
	}
	if b[0]>>4 != 6 {
		return ErrNotIP
	}
	*p = Packet{Len: clampLen(wireLen), TS: ts}
	k := &p.Key
	copy(k.SrcIP[:], b[8:24])
	copy(k.DstIP[:], b[24:40])
	k.IsV6 = true

	next := b[6]
	payload := b[40:]
	// Walk the common extension-header chain.
	for i := 0; i < 6; i++ {
		switch next {
		case 0, 43, 60: // hop-by-hop, routing, destination options
			if len(payload) < 2 {
				return ErrTruncated
			}
			hdrLen := (int(payload[1]) + 1) * 8
			if len(payload) < hdrLen {
				return ErrTruncated
			}
			next = payload[0]
			payload = payload[hdrLen:]
		case 44: // fragment header
			if len(payload) < 8 {
				return ErrTruncated
			}
			offset := uint16(payload[2])<<5 | uint16(payload[3])>>3
			more := payload[3]&0x01 != 0
			nxt := payload[0]
			payload = payload[8:]
			if offset != 0 || more {
				// Same 3-tuple policy as IPv4: any fragment of a truly
				// fragmented datagram (first included) keys without ports.
				k.Proto = nxt
				p.Fragment = true
				return nil
			}
			// Atomic fragment (offset 0, M 0, RFC 6946): a whole datagram
			// wearing a fragment header — parse its L4 normally.
			next = nxt
		default:
			k.Proto = next
			return parseL4(k, next, payload)
		}
	}
	return ErrUnsupportedL4
}

func parseL4(k *FlowKey, proto uint8, b []byte) error {
	switch proto {
	case ProtoTCP, ProtoUDP:
		if len(b) < 4 {
			return ErrTruncated
		}
		k.SrcPort = uint16(b[0])<<8 | uint16(b[1])
		k.DstPort = uint16(b[2])<<8 | uint16(b[3])
	case ProtoICMP, ProtoICMPv6:
		if len(b) < 2 {
			return ErrTruncated
		}
		// Use type/code as the "port" pair so distinct ICMP conversations
		// separate, mirroring how flow tools treat ICMP.
		k.SrcPort = uint16(b[0])
		k.DstPort = uint16(b[1])
	default:
		return ErrUnsupportedL4
	}
	return nil
}

func clampLen(n int) uint16 {
	if n < 0 {
		return 0
	}
	if n > 0xFFFF {
		return 0xFFFF
	}
	return uint16(n)
}
