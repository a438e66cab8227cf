package packet

import (
	"strings"
	"testing"
	"testing/quick"

	"instameasure/internal/flowhash"
)

func TestV4KeyFields(t *testing.T) {
	k := V4Key(0xC0A80101, 0x08080808, 1234, 53, ProtoUDP)
	if got := k.SrcAddr().String(); got != "192.168.1.1" {
		t.Errorf("SrcAddr = %s, want 192.168.1.1", got)
	}
	if got := k.DstAddr().String(); got != "8.8.8.8" {
		t.Errorf("DstAddr = %s, want 8.8.8.8", got)
	}
	if k.SrcPort != 1234 || k.DstPort != 53 || k.Proto != ProtoUDP || k.IsV6 {
		t.Errorf("unexpected key fields: %+v", k)
	}
}

func TestSrcIPv4RoundTrip(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16) bool {
		k := V4Key(src, dst, sp, dp, ProtoTCP)
		return k.SrcIPv4() == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSrcIPv4FoldsV6(t *testing.T) {
	var k FlowKey
	k.IsV6 = true
	for i := range k.SrcIP {
		k.SrcIP[i] = byte(i + 1)
	}
	if k.SrcIPv4() == 0 {
		t.Error("v6 fold should be non-zero for a non-zero address")
	}
}

func TestFlowKeyString(t *testing.T) {
	k := V4Key(0x0A000001, 0x0A000002, 80, 443, ProtoTCP)
	s := k.String()
	for _, want := range []string{"tcp", "10.0.0.1:80", "10.0.0.2:443"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	icmp := V4Key(1, 2, 8, 0, ProtoICMP)
	if !strings.Contains(icmp.String(), "icmp") {
		t.Errorf("icmp key String() = %q", icmp.String())
	}
	other := V4Key(1, 2, 0, 0, 47)
	if !strings.Contains(other.String(), "proto47") {
		t.Errorf("unknown proto String() = %q", other.String())
	}
}

func TestAppendBytesLength(t *testing.T) {
	v4 := V4Key(1, 2, 3, 4, ProtoTCP)
	if got := len(v4.AppendBytes(nil)); got != 13 {
		t.Errorf("v4 encoding length = %d, want 13 (4+4+2+2+1)", got)
	}
	var v6 FlowKey
	v6.IsV6 = true
	if got := len(v6.AppendBytes(nil)); got != 37 {
		t.Errorf("v6 encoding length = %d, want 37 (16+16+2+2+1)", got)
	}
}

func TestHashDeterministicAndKeySensitive(t *testing.T) {
	a := V4Key(1, 2, 3, 4, ProtoTCP)
	b := V4Key(1, 2, 3, 4, ProtoTCP)
	if a.Hash64(7) != b.Hash64(7) {
		t.Error("equal keys hash differently")
	}
	c := V4Key(1, 2, 3, 5, ProtoTCP)
	if a.Hash64(7) == c.Hash64(7) {
		t.Error("distinct keys collided (port change)")
	}
	d := V4Key(1, 2, 3, 4, ProtoUDP)
	if a.Hash64(7) == d.Hash64(7) {
		t.Error("distinct keys collided (proto change)")
	}
	if a.Hash64(7) == a.Hash64(8) {
		t.Error("seed change did not alter hash")
	}
}

func TestHash64V4FastPathMatchesEncoding(t *testing.T) {
	// The fixed-width IPv4 path must produce exactly the hash of the
	// canonical AppendBytes encoding — the hashing contract every stored
	// snapshot and seed-determinism guarantee depends on.
	f := func(src, dst uint32, sp, dp uint16, proto uint8, seed uint64) bool {
		k := V4Key(src, dst, sp, dp, proto)
		var buf [37]byte
		want := flowhash.Sum64(k.AppendBytes(buf[:0]), seed)
		return k.Hash64(seed) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHash64V6PathMatchesEncoding(t *testing.T) {
	var k FlowKey
	k.IsV6 = true
	for i := range k.SrcIP {
		k.SrcIP[i] = byte(i + 1)
		k.DstIP[i] = byte(0x80 + i)
	}
	k.SrcPort, k.DstPort, k.Proto = 443, 51234, ProtoTCP
	var buf [37]byte
	if want := flowhash.Sum64(k.AppendBytes(buf[:0]), 99); k.Hash64(99) != want {
		t.Errorf("v6 Hash64 = %#x, want %#x", k.Hash64(99), want)
	}
}

func TestHashCounting(t *testing.T) {
	SetHashCounting(true)
	defer SetHashCounting(false)
	k := V4Key(1, 2, 3, 4, ProtoTCP)
	k.Hash64(1)
	k.Hash32(1) // folds through Hash64: one hash computation
	if got := HashCount(); got != 2 {
		t.Errorf("hash count = %d, want 2", got)
	}
	SetHashCounting(true) // re-enabling resets
	if got := HashCount(); got != 0 {
		t.Errorf("hash count after reset = %d, want 0", got)
	}
}

func TestHash32Fold(t *testing.T) {
	k := V4Key(9, 8, 7, 6, ProtoUDP)
	h := k.Hash64(3)
	if want := uint32(h ^ (h >> 32)); k.Hash32(3) != want {
		t.Errorf("Hash32 = %#x, want %#x", k.Hash32(3), want)
	}
}

func TestKeyComparable(t *testing.T) {
	m := map[FlowKey]int{}
	a := V4Key(1, 2, 3, 4, ProtoTCP)
	m[a] = 1
	b := V4Key(1, 2, 3, 4, ProtoTCP)
	if m[b] != 1 {
		t.Error("equal keys must index the same map slot")
	}
}

// TestHash64ZeroAllocs: the //im:hotpath root Hash64 allocates nothing on
// either path — the fixed-width IPv4 one and the IPv6 one that stages the
// encoding on the stack — with hash counting off and on.
func TestHash64ZeroAllocs(t *testing.T) {
	v4 := V4Key(0x0A000001, 0xC0A80001, 1234, 443, ProtoTCP)
	v6 := v4
	v6.IsV6 = true
	for i := range v6.SrcIP {
		v6.SrcIP[i], v6.DstIP[i] = byte(i), byte(0xF0|i)
	}
	defer SetHashCounting(false)
	for _, counting := range []bool{false, true} {
		SetHashCounting(counting)
		var sink uint64
		allocs := testing.AllocsPerRun(100, func() {
			sink ^= v4.Hash64(sink) ^ v6.Hash64(sink)
		})
		if allocs != 0 {
			t.Errorf("counting=%v: Hash64 allocates %.2f objects per v4+v6 pair, want 0 (sink %x)", counting, allocs, sink)
		}
	}
}
