package packet

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuildParseRoundTripV4(t *testing.T) {
	protos := []uint8{ProtoTCP, ProtoUDP, ProtoICMP}
	f := func(src, dst uint32, sp, dp uint16, protoIdx uint8, ln uint16) bool {
		proto := protos[int(protoIdx)%len(protos)]
		if proto == ProtoICMP {
			sp, dp = sp%256, dp%256 // ICMP "ports" are type/code bytes
		}
		key := V4Key(src, dst, sp, dp, proto)
		if ln < 64 {
			ln = 64
		}
		p := Packet{Key: key, Len: ln, TS: 42}
		frame, err := BuildEthernet(p, 0)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		got, err := ParseEthernet(frame, int(p.Len), p.TS)
		if err != nil {
			t.Logf("parse: %v", err)
			return false
		}
		return got.Key == key && got.TS == 42
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBuildParseRoundTripV6(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		var key FlowKey
		key.IsV6 = true
		rng.Read(key.SrcIP[:])
		rng.Read(key.DstIP[:])
		key.SrcPort = uint16(rng.Intn(65536))
		key.DstPort = uint16(rng.Intn(65536))
		key.Proto = ProtoTCP
		if i%2 == 0 {
			key.Proto = ProtoUDP
		}

		p := Packet{Key: key, Len: 200, TS: 7}
		frame, err := BuildEthernet(p, 0)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		got, err := ParseEthernet(frame, int(p.Len), p.TS)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if got.Key != key {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Key, key)
		}
	}
}

func TestParseVLANUnwrap(t *testing.T) {
	key := V4Key(0x01020304, 0x05060708, 1000, 2000, ProtoTCP)
	frame, err := BuildEthernet(Packet{Key: key, Len: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Splice one 802.1Q tag between the MACs and the ethertype.
	tagged := make([]byte, 0, len(frame)+4)
	tagged = append(tagged, frame[:12]...)
	tagged = append(tagged, 0x81, 0x00, 0x00, 0x05) // TPID + VID 5
	tagged = append(tagged, frame[12:]...)

	got, err := ParseEthernet(tagged, len(tagged), 0)
	if err != nil {
		t.Fatalf("parse vlan: %v", err)
	}
	if got.Key != key {
		t.Errorf("vlan unwrap key mismatch: got %+v", got.Key)
	}

	// Double-tagged (QinQ).
	qinq := make([]byte, 0, len(frame)+8)
	qinq = append(qinq, frame[:12]...)
	qinq = append(qinq, 0x81, 0x00, 0x00, 0x01, 0x81, 0x00, 0x00, 0x02)
	qinq = append(qinq, frame[12:]...)
	got, err = ParseEthernet(qinq, len(qinq), 0)
	if err != nil {
		t.Fatalf("parse qinq: %v", err)
	}
	if got.Key != key {
		t.Errorf("qinq unwrap key mismatch: got %+v", got.Key)
	}
}

func TestParseTruncated(t *testing.T) {
	key := V4Key(1, 2, 3, 4, ProtoTCP)
	frame, err := BuildEthernet(Packet{Key: key, Len: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 5, 13, 14, 20, 33, 37} {
		if _, err := ParseEthernet(frame[:n], 100, 0); !errors.Is(err, ErrTruncated) {
			t.Errorf("len %d: err = %v, want ErrTruncated", n, err)
		}
	}
}

func TestParseNonIP(t *testing.T) {
	frame := make([]byte, 60)
	frame[12], frame[13] = 0x08, 0x06 // ARP
	if _, err := ParseEthernet(frame, 60, 0); !errors.Is(err, ErrNotIP) {
		t.Errorf("err = %v, want ErrNotIP", err)
	}
}

func TestParseUnsupportedL4(t *testing.T) {
	key := V4Key(1, 2, 0, 0, ProtoTCP)
	frame, err := BuildEthernet(Packet{Key: key, Len: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame[14+9] = 47 // rewrite protocol to GRE
	if _, err := ParseEthernet(frame, 100, 0); !errors.Is(err, ErrUnsupportedL4) {
		t.Errorf("err = %v, want ErrUnsupportedL4", err)
	}
}

// TestParseSkipsAllocateNothing pins the cost of the frames the parser
// turns away: an ARP, LLDP or garbage flood must not be the most expensive
// traffic it can be fed, so every skip returns an error built once.
func TestParseSkipsAllocateNothing(t *testing.T) {
	tcp, err := BuildEthernet(Packet{Key: V4Key(1, 2, 3, 4, ProtoTCP), Len: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	arp := make([]byte, 60)
	arp[12], arp[13] = 0x08, 0x06
	gre := append([]byte(nil), tcp...)
	gre[14+9] = 47
	for _, tt := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"arp", arp, ErrNotIP},
		{"unsupported l4", gre, ErrUnsupportedL4},
		{"truncated", tcp[:30], ErrTruncated},
		{"tcp", tcp, nil},
	} {
		var got error
		allocs := testing.AllocsPerRun(100, func() {
			_, got = ParseEthernet(tt.frame, len(tt.frame), 0)
		})
		if !errors.Is(got, tt.want) {
			t.Errorf("%s: err = %v, want %v", tt.name, got, tt.want)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per frame, want 0", tt.name, allocs)
		}
	}
}

// TestDecodeOverwritesSlot: bulk readers decode into reused slots, so a
// decode must leave nothing of the slot's previous packet behind — an IPv4
// key writes only four of each address's sixteen bytes.
func TestDecodeOverwritesSlot(t *testing.T) {
	var v6 FlowKey
	for i := range v6.SrcIP {
		v6.SrcIP[i], v6.DstIP[i] = 0xAA, 0xBB
	}
	v6.SrcPort, v6.DstPort, v6.Proto, v6.IsV6 = 7, 9, ProtoUDP, true
	frames := [][]byte{}
	for _, p := range []Packet{
		{Key: v6, Len: 200},
		{Key: V4Key(1, 2, 3, 4, ProtoTCP), Len: 100},
		{Key: V4Key(5, 6, 8, 0, ProtoICMP), Len: 80},
	} {
		f, err := BuildEthernet(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	frag := append([]byte(nil), frames[1]...)
	frag[14+6] |= 0x20 // more-fragments
	frames = append(frames, frag, frames[1])

	var slot Packet
	for i, f := range frames {
		want, err := ParseEthernet(f, len(f), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := slot.DecodeEthernet(f, len(f), int64(i)); err != nil {
			t.Fatal(err)
		}
		if slot != want {
			t.Errorf("frame %d: reused slot = %+v, fresh parse = %+v", i, slot, want)
		}
		if err := slot.DecodeIP(f[14:], len(f), int64(i)); err != nil || slot != want {
			t.Errorf("frame %d: DecodeIP into reused slot = %+v (%v), want %+v", i, slot, err, want)
		}
	}
}

func TestParseIPv4Fragment(t *testing.T) {
	key := V4Key(10, 20, 30, 40, ProtoUDP)
	frame, err := BuildEthernet(Packet{Key: key, Len: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Set a non-zero fragment offset: the parser must fall back to the
	// 3-tuple (ports zeroed) rather than misreading payload bytes.
	frame[14+6] = 0x00
	frame[14+7] = 0x10
	got, err := ParseEthernet(frame, 100, 0)
	if err != nil {
		t.Fatalf("parse fragment: %v", err)
	}
	if got.Key.SrcPort != 0 || got.Key.DstPort != 0 {
		t.Errorf("fragment must have zero ports, got %d/%d", got.Key.SrcPort, got.Key.DstPort)
	}
	if got.Key.Proto != ProtoUDP || got.Key.SrcIPv4() != 10 {
		t.Errorf("fragment lost 3-tuple: %+v", got.Key)
	}
	if !got.Fragment {
		t.Error("non-first fragment not marked Fragment")
	}
}

// TestParseIPv4FragmentChainOneFlow is the fragment-accounting regression
// test: every fragment of one datagram — the first (MF set, offset 0)
// included — must key on the same 3-tuple fragment flow, so the datagram's
// bytes land in one flow instead of splitting between the first fragment's
// 5-tuple and a 3-tuple phantom.
func TestParseIPv4FragmentChainOneFlow(t *testing.T) {
	key := V4Key(10, 20, 30, 40, ProtoUDP)
	build := func(flagsHi, offLo byte) Packet {
		t.Helper()
		frame, err := BuildEthernet(Packet{Key: key, Len: 100}, 0)
		if err != nil {
			t.Fatal(err)
		}
		frame[14+6], frame[14+7] = flagsHi, offLo
		got, err := ParseEthernet(frame, 100, 0)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return got
	}

	first := build(0x20, 0x00) // MF=1, offset 0: the chain's first fragment
	rest := build(0x00, 0x10)  // MF=0, offset != 0: the chain's last fragment
	if first.Key != rest.Key {
		t.Fatalf("one datagram split across two flows:\nfirst %+v\nrest  %+v", first.Key, rest.Key)
	}
	if first.Key.SrcPort != 0 || first.Key.DstPort != 0 {
		t.Errorf("fragment flow carries ports %d/%d, want the 3-tuple", first.Key.SrcPort, first.Key.DstPort)
	}
	if !first.Fragment || !rest.Fragment {
		t.Errorf("Fragment marks = %v/%v, want true/true", first.Fragment, rest.Fragment)
	}

	whole := build(0x00, 0x00) // unfragmented: full 5-tuple, no marker
	if whole.Key != key {
		t.Errorf("unfragmented packet key mismatch: %+v", whole.Key)
	}
	if whole.Fragment {
		t.Error("unfragmented packet marked Fragment")
	}
	// DF says "don't fragment" — the datagram is whole and keeps its 5-tuple.
	df := build(0x40, 0x00)
	if df.Key != key || df.Fragment {
		t.Errorf("DF packet mis-keyed: key %+v fragment %v", df.Key, df.Fragment)
	}
}

func TestParseRawIP(t *testing.T) {
	key := V4Key(111, 222, 333, 444, ProtoTCP)
	frame, err := BuildEthernet(Packet{Key: key, Len: 80}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseIP(frame[14:], 80, 9)
	if err != nil {
		t.Fatalf("ParseIP: %v", err)
	}
	if got.Key != key {
		t.Errorf("raw ip key mismatch: %+v", got.Key)
	}
	if _, err := ParseIP([]byte{0x30, 0, 0, 0}, 4, 0); !errors.Is(err, ErrNotIP) {
		t.Errorf("bad version: err = %v, want ErrNotIP", err)
	}
	if _, err := ParseIP(nil, 0, 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty: err = %v, want ErrTruncated", err)
	}
}

func TestParseIPv6ExtensionHeaders(t *testing.T) {
	var key FlowKey
	key.IsV6 = true
	key.SrcIP[15], key.DstIP[15] = 1, 2
	key.SrcPort, key.DstPort = 5000, 6000
	key.Proto = ProtoUDP

	frame, err := BuildEthernet(Packet{Key: key, Len: 120}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with a hop-by-hop extension header between IPv6 and UDP.
	ip := frame[14:]
	ext := make([]byte, 0, len(frame)+8)
	ext = append(ext, frame[:14]...)
	ext = append(ext, ip[:40]...)
	ext = append(ext, ProtoUDP, 0, 0, 0, 0, 0, 0, 0) // hop-by-hop, len 0 (8 bytes)
	ext = append(ext, ip[40:]...)
	ext[14+6] = 0 // next header: hop-by-hop

	got, err := ParseEthernet(ext, len(ext), 0)
	if err != nil {
		t.Fatalf("parse ext header: %v", err)
	}
	if got.Key != key {
		t.Errorf("ext header key mismatch:\n got %+v\nwant %+v", got.Key, key)
	}
}

func TestParseIPv6NonFirstFragment(t *testing.T) {
	var key FlowKey
	key.IsV6 = true
	key.SrcIP[15], key.DstIP[15] = 3, 4
	key.SrcPort, key.DstPort = 1111, 2222
	key.Proto = ProtoTCP

	frame, err := BuildEthernet(Packet{Key: key, Len: 120}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ip := frame[14:]
	frag := make([]byte, 0, len(frame)+8)
	frag = append(frag, frame[:14]...)
	frag = append(frag, ip[:40]...)
	// Fragment header: next=TCP, offset != 0.
	frag = append(frag, ProtoTCP, 0, 0x00, 0x08, 0, 0, 0, 0)
	frag = append(frag, ip[40:]...)
	frag[14+6] = 44 // next header: fragment

	got, err := ParseEthernet(frag, len(frag), 0)
	if err != nil {
		t.Fatalf("parse v6 fragment: %v", err)
	}
	if got.Key.SrcPort != 0 || got.Key.DstPort != 0 {
		t.Errorf("v6 fragment must zero ports, got %d/%d", got.Key.SrcPort, got.Key.DstPort)
	}
	if got.Key.Proto != ProtoTCP {
		t.Errorf("v6 fragment proto = %d, want TCP", got.Key.Proto)
	}
	if !got.Fragment {
		t.Error("v6 non-first fragment not marked Fragment")
	}
}

// TestParseIPv6FragmentChainOneFlow: the v6 leg of the fragment-accounting
// regression. A first fragment (offset 0, M=1) keys on the 3-tuple like
// the rest of its chain; an atomic fragment (offset 0, M=0, RFC 6946) is a
// whole datagram and keeps its 5-tuple.
func TestParseIPv6FragmentChainOneFlow(t *testing.T) {
	var key FlowKey
	key.IsV6 = true
	key.SrcIP[15], key.DstIP[15] = 3, 4
	key.SrcPort, key.DstPort = 1111, 2222
	key.Proto = ProtoTCP

	build := func(offLoM byte) Packet {
		t.Helper()
		frame, err := BuildEthernet(Packet{Key: key, Len: 120}, 0)
		if err != nil {
			t.Fatal(err)
		}
		ip := frame[14:]
		frag := make([]byte, 0, len(frame)+8)
		frag = append(frag, frame[:14]...)
		frag = append(frag, ip[:40]...)
		frag = append(frag, ProtoTCP, 0, 0x00, offLoM, 0, 0, 0, 0)
		frag = append(frag, ip[40:]...)
		frag[14+6] = 44 // next header: fragment
		got, err := ParseEthernet(frag, len(frag), 0)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return got
	}

	first := build(0x01) // offset 0, M=1
	rest := build(0x08)  // offset 1, M=0
	if first.Key != rest.Key {
		t.Fatalf("one v6 datagram split across two flows:\nfirst %+v\nrest  %+v", first.Key, rest.Key)
	}
	if first.Key.SrcPort != 0 || first.Key.DstPort != 0 || !first.Fragment || !rest.Fragment {
		t.Errorf("v6 fragment flow wrong: key %+v marks %v/%v", first.Key, first.Fragment, rest.Fragment)
	}

	atomic := build(0x00) // offset 0, M=0: atomic fragment
	if atomic.Key != key {
		t.Errorf("atomic fragment lost its 5-tuple: %+v", atomic.Key)
	}
	if atomic.Fragment {
		t.Error("atomic fragment marked Fragment")
	}
}

func TestClampLen(t *testing.T) {
	if clampLen(-1) != 0 || clampLen(70000) != 0xFFFF || clampLen(1500) != 1500 {
		t.Error("clampLen bounds wrong")
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	key := V4Key(0xDEADBEEF, 0xCAFEBABE, 80, 8080, ProtoTCP)
	frame, err := BuildEthernet(Packet{Key: key, Len: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := frame[14 : 14+20]
	// Verifying: sum of all 16-bit words including checksum must be 0xFFFF.
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum > 0xFFFF {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	if sum != 0xFFFF {
		t.Errorf("ipv4 checksum invalid: folded sum = %#x", sum)
	}
}
