package rcc

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// The tests below hold the table-driven vector derivation to the
// statistics of the ideal one — a uniform v-subset of a uniform word —
// since every accuracy bound downstream (decode table, oracle envelopes)
// assumes them.

// wordOf returns the pool word holding loc's vector and fails the test
// unless the word is in the pool and the mask is exactly v bits.
func wordOf(t *testing.T, c *Counter, loc Location) int {
	t.Helper()
	cfg := c.Config()
	if loc.Word < 0 || loc.Word >= len(c.words) {
		t.Fatalf("word %d outside pool [0,%d)", loc.Word, len(c.words))
	}
	if n := bits.OnesCount64(loc.Mask); n != cfg.VectorBits {
		t.Fatalf("mask %016x has %d bits, want %d distinct positions", loc.Mask, n, cfg.VectorBits)
	}
	return loc.Word
}

func TestVectorExactAndConfined(t *testing.T) {
	for _, v := range []int{2, 3, 4, 8, 16, 32, 33, 48, 64} {
		c := MustNew(Config{VectorBits: v, MemoryBytes: 4096, NoiseMax: 1, Seed: uint64(v)})
		for _, m := range c.masks {
			if bits.OnesCount64(m) != v {
				t.Fatalf("v=%d: table mask %016x is not v bits", v, m)
			}
		}
		rng := rand.New(rand.NewSource(int64(v)))
		var loc Location
		for i := 0; i < 5000; i++ {
			c.Locate(rng.Uint64(), &loc)
			wordOf(t, c, loc)
		}
	}
}

// chiSquare returns Σ(O−E)²/E for equally likely cells, and the value it
// should stay under: 4.5σ above the mean of a chi-square at len(counts)−1
// degrees of freedom (beyond the 99.9th percentile at any cell count here).
func chiSquare(counts []int, total int) (x, limit float64) {
	e := float64(total) / float64(len(counts))
	for _, o := range counts {
		x += (float64(o) - e) * (float64(o) - e) / e
	}
	dof := float64(len(counts) - 1)
	return x, dof + 4.5*math.Sqrt(2*dof)
}

// TestVectorMarginalUniform: over many flows of a one-word pool, every bit
// position of the word belongs to a vector equally often.
func TestVectorMarginalUniform(t *testing.T) {
	c := MustNew(Config{VectorBits: 8, MemoryBytes: 8, Seed: 21})
	rng := rand.New(rand.NewSource(22))
	const flows = 200_000
	counts := make([]int, 64)
	var loc Location
	for i := 0; i < flows; i++ {
		c.Locate(rng.Uint64(), &loc)
		for m := loc.Mask; m != 0; m &= m - 1 {
			counts[bits.TrailingZeros64(m)]++
		}
	}
	// The v bits of one vector are distinct, which only lowers the
	// statistic.
	if x, limit := chiSquare(counts, flows*8); x > limit {
		t.Errorf("per-bit chi-square %.1f > %.1f; counts %v", x, limit, counts)
	}
}

// TestVectorPairwiseOverlap: two flows sharing a word overlap in v²/64
// positions on average, as uniform v-subsets do, and almost never share
// the whole vector.
func TestVectorPairwiseOverlap(t *testing.T) {
	const v = 8
	c := MustNew(Config{VectorBits: v, MemoryBytes: 8, Seed: 31})
	rng := rand.New(rand.NewSource(32))
	var a, b Location
	var pairs, overlap, identical int
	for pairs < 1_000_000 {
		c.Locate(rng.Uint64(), &a)
		c.Locate(rng.Uint64(), &b)
		if wordOf(t, c, a) != wordOf(t, c, b) {
			continue
		}
		pairs++
		overlap += bits.OnesCount64(a.Mask & b.Mask)
		if a.Mask == b.Mask {
			identical++
		}
	}
	want := float64(v*v) / wordBits
	if got := float64(overlap) / float64(pairs); math.Abs(got-want) > 0.05*want {
		t.Errorf("mean overlap %.4f, want %.4f ±5%%", got, want)
	}
	if p := float64(identical) / float64(pairs); p > 1.0/(1<<14) {
		t.Errorf("P(identical vector) = %.2e > 2^-14", p)
	}
}

// TestWordIndexCoversOddPools: multiply-high word selection reaches every
// word of a pool whose size is not a power of two, the last included,
// evenly, and never indexes past the pool.
func TestWordIndexCoversOddPools(t *testing.T) {
	for _, memory := range []int{24, 8 * 37, 8 * 1000} {
		c := MustNew(Config{VectorBits: 8, MemoryBytes: memory, Seed: 41})
		counts := make([]int, len(c.words))
		rng := rand.New(rand.NewSource(42))
		total := 2000 * len(counts)
		var loc Location
		for i := 0; i < total; i++ {
			c.Locate(rng.Uint64(), &loc)
			counts[wordOf(t, c, loc)]++
		}
		for w, n := range counts {
			if n < 1700 || n > 2300 { // 2000 ± 6.7σ
				t.Errorf("%dB: word %d of %d selected %d times, want ≈2000", memory, w, len(counts), n)
			}
		}
	}
}

// TestLocateSpreadsShardedHashes: the sharded pipeline routes flows by the
// hash's high bits, so one shard's regulator sees only hashes from a narrow
// high-bit range — which must still spread over the whole pool.
func TestLocateSpreadsShardedHashes(t *testing.T) {
	c := MustNew(Config{VectorBits: 8, MemoryBytes: 8 * 16, Seed: 51})
	rng := rand.New(rand.NewSource(52))
	counts := make([]int, len(c.words))
	var loc Location
	for i := 0; i < 16*2000; i++ {
		h := rng.Uint64()>>3 | 5<<61 // shard 5 of 8
		c.Locate(h, &loc)
		counts[loc.Word]++
	}
	for w, n := range counts {
		if n < 1700 || n > 2300 {
			t.Errorf("word %d selected %d times by one shard's hashes, want ≈2000", w, n)
		}
	}
}

// TestEncodeDrawsMaskBitsUniformly: the packet's bit is drawn uniformly
// from the vector's v positions — what the coupon-collector decode assumes.
func TestEncodeDrawsMaskBitsUniformly(t *testing.T) {
	for _, v := range []int{3, 8, 33, 64} {
		c := MustNew(Config{VectorBits: v, MemoryBytes: 8, NoiseMax: 1, Seed: 61})
		var loc Location
		c.Locate(62, &loc)
		const draws = 100_000
		counts := make(map[uint64]int, v)
		for i := 0; i < draws; i++ {
			c.words[0] = 0
			c.EncodeLoc(&loc)
			bit := c.words[0]
			if bits.OnesCount64(bit) != 1 || bit&loc.Mask == 0 {
				t.Fatalf("v=%d: encode set %016x, want one bit of mask %016x", v, bit, loc.Mask)
			}
			counts[bit]++
		}
		cells := make([]int, 0, v)
		for m := loc.Mask; m != 0; m &= m - 1 {
			cells = append(cells, counts[m&-m])
		}
		if x, limit := chiSquare(cells, draws); x > limit {
			t.Errorf("v=%d: bit-draw chi-square %.1f > %.1f; counts %v", v, x, limit, cells)
		}
	}
}
