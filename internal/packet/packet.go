// Package packet defines the packet and flow-key model shared by every
// subsystem: the 5-tuple flow identity the paper measures (source/destination
// IP and port plus protocol), the lightweight Packet record carried through
// the pipeline, and parsers for raw Ethernet/IPv4/IPv6/TCP/UDP/ICMP frames.
package packet

import (
	"fmt"
	"net/netip"
	"sync/atomic"

	"instameasure/internal/flowhash"
)

// Proto numbers for the L4 protocols the measurement system classifies.
const (
	ProtoICMP   uint8 = 1
	ProtoTCP    uint8 = 6
	ProtoUDP    uint8 = 17
	ProtoICMPv6 uint8 = 58
)

// FlowKey is the 5-tuple identity of an L4 flow. IPv4 addresses are stored
// in the 4-byte prefix of the address arrays with IsV6 false, so the key is
// comparable (usable as a map key) and hashes identically across runs.
type FlowKey struct {
	SrcIP   [16]byte
	DstIP   [16]byte
	SrcPort uint16
	DstPort uint16
	Proto   uint8
	IsV6    bool
}

// Packet is the compact per-packet record the measurement pipeline consumes:
// flow identity, wire length in bytes, and an arrival timestamp in
// nanoseconds since the start of the trace.
//
// Fragment marks packets of a fragmented datagram. Every fragment — the
// first included, since its L4 header describes the whole datagram, not
// this wire packet — is keyed on the 3-tuple (addresses + protocol, ports
// zero), so one fragmented datagram lands in exactly one flow instead of
// splitting between a 5-tuple flow (first fragment) and a 3-tuple phantom
// (the rest).
type Packet struct {
	Key      FlowKey
	Len      uint16
	Fragment bool
	TS       int64
}

// V4Key builds an IPv4 FlowKey from addresses given as 32-bit integers in
// host order. Trace generators use this form on the hot path.
func V4Key(src, dst uint32, srcPort, dstPort uint16, proto uint8) FlowKey {
	var k FlowKey
	k.SrcIP[0] = byte(src >> 24)
	k.SrcIP[1] = byte(src >> 16)
	k.SrcIP[2] = byte(src >> 8)
	k.SrcIP[3] = byte(src)
	k.DstIP[0] = byte(dst >> 24)
	k.DstIP[1] = byte(dst >> 16)
	k.DstIP[2] = byte(dst >> 8)
	k.DstIP[3] = byte(dst)
	k.SrcPort = srcPort
	k.DstPort = dstPort
	k.Proto = proto
	return k
}

// SrcIPv4 returns the source address as a 32-bit host-order integer. For
// IPv6 keys it returns a fold of the upper bytes so popcount sharding still
// distributes flows.
func (k FlowKey) SrcIPv4() uint32 {
	if !k.IsV6 {
		return uint32(k.SrcIP[0])<<24 | uint32(k.SrcIP[1])<<16 |
			uint32(k.SrcIP[2])<<8 | uint32(k.SrcIP[3])
	}
	var x uint32
	for i := 0; i < 16; i += 4 {
		x ^= uint32(k.SrcIP[i])<<24 | uint32(k.SrcIP[i+1])<<16 |
			uint32(k.SrcIP[i+2])<<8 | uint32(k.SrcIP[i+3])
	}
	return x
}

// SrcAddr returns the source address as a netip.Addr.
func (k FlowKey) SrcAddr() netip.Addr {
	if k.IsV6 {
		return netip.AddrFrom16(k.SrcIP)
	}
	return netip.AddrFrom4([4]byte{k.SrcIP[0], k.SrcIP[1], k.SrcIP[2], k.SrcIP[3]})
}

// DstAddr returns the destination address as a netip.Addr.
func (k FlowKey) DstAddr() netip.Addr {
	if k.IsV6 {
		return netip.AddrFrom16(k.DstIP)
	}
	return netip.AddrFrom4([4]byte{k.DstIP[0], k.DstIP[1], k.DstIP[2], k.DstIP[3]})
}

// String renders the key as "proto src:port->dst:port".
func (k FlowKey) String() string {
	return fmt.Sprintf("%s %s:%d->%s:%d",
		protoName(k.Proto), k.SrcAddr(), k.SrcPort, k.DstAddr(), k.DstPort)
}

// AppendBytes appends the canonical wire encoding of the key to dst and
// returns the extended slice. The encoding is the hashing contract: the same
// key always produces the same bytes.
func (k FlowKey) AppendBytes(dst []byte) []byte {
	n := 4
	if k.IsV6 {
		n = 16
	}
	dst = append(dst, k.SrcIP[:n]...)
	dst = append(dst, k.DstIP[:n]...)
	dst = append(dst,
		byte(k.SrcPort>>8), byte(k.SrcPort),
		byte(k.DstPort>>8), byte(k.DstPort),
		k.Proto)
	return dst
}

// hashCounting instruments flow-key hashing for the single-hash-per-packet
// invariant tests: when enabled, every Hash64/Hash32 call bumps hashCount.
// Both are atomic, so the count holds across a sharded run's workers.
// Disabled, it costs one predicted branch per hash.
var (
	hashCounting atomic.Bool
	hashCount    atomic.Uint64
)

// SetHashCounting turns hash-call counting on or off and resets the count.
// Test instrumentation only: contended, the counter costs every hash a
// shared cache line, so enable it around the run under test alone.
func SetHashCounting(on bool) {
	hashCounting.Store(on)
	hashCount.Store(0)
}

// HashCount reports the number of Hash64/Hash32 calls since counting was
// enabled.
func HashCount() uint64 { return hashCount.Load() }

// Hash64 returns the seeded 64-bit hash of the key. Sketches derive the
// word index, the virtual-vector bit positions, and the WSAF slot from this
// one value, matching the paper's single-hash-per-packet design.
//
// IPv4 keys (the hot case) take a fixed-width path that feeds the 13-byte
// canonical encoding to the hash as three registers, skipping the staging
// buffer and length-dispatch loop of the general byte-slice hash; the
// result is identical to hashing AppendBytes output.
//
//im:hotpath
func (k *FlowKey) Hash64(seed uint64) uint64 {
	if hashCounting.Load() {
		hashCount.Add(1)
	}
	if !k.IsV6 {
		addrs := uint64(uint32(k.SrcIP[0])|uint32(k.SrcIP[1])<<8|uint32(k.SrcIP[2])<<16|uint32(k.SrcIP[3])<<24) |
			uint64(uint32(k.DstIP[0])|uint32(k.DstIP[1])<<8|uint32(k.DstIP[2])<<16|uint32(k.DstIP[3])<<24)<<32
		ports := uint32(k.SrcPort>>8) | uint32(k.SrcPort&0xFF)<<8 |
			uint32(k.DstPort>>8)<<16 | uint32(k.DstPort&0xFF)<<24
		return flowhash.SumFlowKeyV4(addrs, ports, k.Proto, seed)
	}
	var buf [37]byte
	b := k.AppendBytes(buf[:0])
	return flowhash.Sum64(b, seed)
}

// Hash32 folds Hash64 to the 32-bit flow ID stored in the WSAF table.
func (k *FlowKey) Hash32(seed uint64) uint32 {
	h := k.Hash64(seed)
	return uint32(h ^ (h >> 32))
}

func protoName(p uint8) string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoICMPv6:
		return "icmp6"
	default:
		return fmt.Sprintf("proto%d", p)
	}
}
