package flowhash

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSum64Deterministic(t *testing.T) {
	f := func(b []byte, seed uint64) bool {
		return Sum64(b, seed) == Sum64(b, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSum64SeedChangesOutput(t *testing.T) {
	b := []byte("instameasure flow key")
	if Sum64(b, 1) == Sum64(b, 2) {
		t.Error("different seeds produced identical hashes")
	}
}

func TestSum64InputLengths(t *testing.T) {
	// Exercise every length class of the algorithm: tail bytes, 4-byte
	// chunk, 8-byte chunk, and the 32-byte vector loop.
	seen := make(map[uint64]int)
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	for n := 0; n <= len(buf); n++ {
		h := Sum64(buf[:n], 42)
		if prev, dup := seen[h]; dup {
			t.Fatalf("length %d collides with length %d", n, prev)
		}
		seen[h] = n
	}
}

func TestSumFlowKeyV4MatchesSum64(t *testing.T) {
	// The fixed-width fast path must be bit-identical to the general hash
	// over the same 13-byte encoding: addrs is bytes 0-7 little-endian,
	// ports bytes 8-11 little-endian, proto byte 12.
	f := func(addrs uint64, ports uint32, proto uint8, seed uint64) bool {
		var b [13]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(addrs >> (8 * i))
		}
		for i := 0; i < 4; i++ {
			b[8+i] = byte(ports >> (8 * i))
		}
		b[12] = proto
		return SumFlowKeyV4(addrs, ports, proto, seed) == Sum64(b[:], seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSum64SingleBitFlipAvalanche(t *testing.T) {
	base := make([]byte, 16)
	h0 := Sum64(base, 0)
	var totalFlips int
	bits := 0
	for i := 0; i < len(base)*8; i++ {
		mod := make([]byte, 16)
		copy(mod, base)
		mod[i/8] ^= 1 << (i % 8)
		diff := h0 ^ Sum64(mod, 0)
		totalFlips += popcount64(diff)
		bits++
	}
	mean := float64(totalFlips) / float64(bits)
	if mean < 24 || mean > 40 {
		t.Errorf("avalanche mean flipped bits = %.1f, want ~32", mean)
	}
}

func TestSum64Distribution(t *testing.T) {
	// Hash sequential keys and check bucket uniformity over 64 buckets.
	const n = 64_000
	buckets := make([]int, 64)
	var key [8]byte
	for i := 0; i < n; i++ {
		key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		buckets[Sum64(key[:], 7)%64]++
	}
	want := float64(n) / 64
	for i, c := range buckets {
		if math.Abs(float64(c)-want)/want > 0.15 {
			t.Errorf("bucket %d has %d entries, want ~%.0f", i, c, want)
		}
	}
}

func TestSum32FoldsBothHalves(t *testing.T) {
	b := []byte("fold test")
	h := Sum64(b, 9)
	want := uint32(h ^ (h >> 32))
	if got := Sum32(b, 9); got != want {
		t.Errorf("Sum32 = %#x, want %#x", got, want)
	}
}

func TestMix64Bijective(t *testing.T) {
	// splitmix64's finalizer is a bijection; sampled inputs must not
	// collide.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10_000; i++ {
		m := Mix64(i)
		if prev, dup := seen[m]; dup {
			t.Fatalf("Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[m] = i
	}
}

func TestPopCount32(t *testing.T) {
	tests := []struct {
		in   uint32
		want int
	}{
		{0, 0},
		{1, 1},
		{0xFFFFFFFF, 32},
		{0x80000001, 2},
		{0x0F0F0F0F, 16},
	}
	for _, tt := range tests {
		if got := PopCount32(tt.in); got != tt.want {
			t.Errorf("PopCount32(%#x) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(5)
	for _, n := range []int{1, 2, 7, 64, 1000} {
		for i := 0; i < 1000; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRandIntnUniform(t *testing.T) {
	r := NewRand(11)
	const n, trials = 8, 80_000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("value %d drawn %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10_000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRandExpFloat64Mean(t *testing.T) {
	r := NewRand(17)
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %v negative", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %.4f, want ~1", mean)
	}
}

func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// TestHotpathZeroAllocs: the three //im:hotpath roots allocate nothing —
// Sum64 at every length up to 64 bytes, so the 32-byte stripes and each
// 8-, 4- and 1-byte tail run, SumFlowKeyV4 and Mix64.
func TestHotpathZeroAllocs(t *testing.T) {
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i)
	}
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		for n := range len(buf) + 1 {
			sink ^= Sum64(buf[:n], sink)
		}
		sink ^= SumFlowKeyV4(sink, uint32(sink), uint8(sink), 7)
		sink = Mix64(sink)
	})
	if allocs != 0 {
		t.Fatalf("Sum64/SumFlowKeyV4/Mix64 allocate %.2f objects per run, want 0 (sink %x)", allocs, sink)
	}
}
