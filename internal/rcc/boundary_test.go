package rcc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestDefaultNoiseThresholdSweep pins the paper's derived saturation
// threshold across every legal vector size: NoiseMax defaults to ⌈3v/8⌉
// (floored at 1) and NoiseMin to 1, and the resolved pair always satisfies
// 1 ≤ NoiseMin ≤ NoiseMax < v.
func TestDefaultNoiseThresholdSweep(t *testing.T) {
	for _, wordBits := range []int{32, 64} {
		for v := 2; v <= wordBits; v++ {
			c, err := New(Config{MemoryBytes: 64, VectorBits: v, WordBits: wordBits})
			if err != nil {
				t.Fatalf("w=%d v=%d: %v", wordBits, v, err)
			}
			cfg := c.Config()
			want := (3*v + 7) / 8
			if want < 1 {
				want = 1
			}
			if cfg.NoiseMax != want {
				t.Errorf("w=%d v=%d: NoiseMax = %d, want ⌈3v/8⌉ = %d", wordBits, v, cfg.NoiseMax, want)
			}
			if cfg.NoiseMin != 1 {
				t.Errorf("w=%d v=%d: NoiseMin = %d, want 1", wordBits, v, cfg.NoiseMin)
			}
			if !(1 <= cfg.NoiseMin && cfg.NoiseMin <= cfg.NoiseMax && cfg.NoiseMax < v) {
				t.Errorf("w=%d v=%d: resolved noise range %d..%d violates invariant", wordBits, v, cfg.NoiseMin, cfg.NoiseMax)
			}
		}
	}
}

// TestConfigValidationBoundaries walks the exact edges of the config
// domain: one inside (accepted) and one outside (rejected) for each bound.
func TestConfigValidationBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want error
	}{
		{"v at word size ok", Config{MemoryBytes: 64, VectorBits: 64}, nil},
		{"v above word size", Config{MemoryBytes: 64, VectorBits: 65}, ErrVectorBits},
		{"v=33 in 32-bit span", Config{MemoryBytes: 64, VectorBits: 33, WordBits: 32}, ErrVectorBits},
		{"v=32 in 32-bit span ok", Config{MemoryBytes: 64, VectorBits: 32, WordBits: 32}, nil},
		{"v below 2", Config{MemoryBytes: 64, VectorBits: 1}, ErrVectorBits},
		{"word bits 16", Config{MemoryBytes: 64, VectorBits: 8, WordBits: 16}, ErrWordBits},
		{"noise max at v", Config{MemoryBytes: 64, VectorBits: 8, NoiseMax: 8}, ErrNoiseRange},
		{"noise max at v-1 ok", Config{MemoryBytes: 64, VectorBits: 8, NoiseMax: 7}, nil},
		{"noise min above max", Config{MemoryBytes: 64, VectorBits: 8, NoiseMin: 4, NoiseMax: 3}, ErrNoiseRange},
		{"noise min equals max ok", Config{MemoryBytes: 64, VectorBits: 8, NoiseMin: 3, NoiseMax: 3}, nil},
	} {
		_, err := New(tc.cfg)
		if tc.want == nil && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDecodeBruteForceCouponCollector checks the decode table at the two
// operating points the system actually reads — NoiseMin and NoiseMax —
// against a direct Monte-Carlo simulation of the fill process: throw balls
// uniformly at v bins until z remain empty.
func TestDecodeBruteForceCouponCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, v := range []int{4, 8, 16, 32} {
		c := MustNew(Config{MemoryBytes: 64, VectorBits: v})
		cfg := c.Config()
		for _, z := range []int{cfg.NoiseMin, cfg.NoiseMax} {
			const trials = 30_000
			var sum float64
			for i := 0; i < trials; i++ {
				var filled uint64
				zeros, throws := v, 0
				for zeros > z {
					throws++
					if b := uint64(1) << rng.Intn(v); filled&b == 0 {
						filled |= b
						zeros--
					}
				}
				sum += float64(throws)
			}
			mean := sum / trials
			got := c.Decode(z)
			if rel := math.Abs(mean-got) / got; rel > 0.02 {
				t.Errorf("v=%d z=%d: Decode = %.3f, simulated mean %.3f (%.1f%% off)", v, z, got, mean, rel*100)
			}
		}
		// Exact end points: z=v means zero throws; Decode clamps out-of-range
		// noise instead of indexing out of bounds.
		if c.Decode(v) != 0 {
			t.Errorf("v=%d: Decode(v) = %v, want 0", v, c.Decode(v))
		}
		if c.Decode(v+10) != c.Decode(v) || c.Decode(-3) != c.Decode(0) {
			t.Errorf("v=%d: Decode must clamp out-of-range noise", v)
		}
		if !(c.Decode(0) > c.Decode(cfg.NoiseMin) && c.Decode(cfg.NoiseMin) >= c.Decode(cfg.NoiseMax)) {
			t.Errorf("v=%d: decode table not monotone decreasing in noise", v)
		}
	}
}

// Test32BitConfinementSpanIndexing verifies the 32-bit confinement option:
// every resolved vector stays inside one 32-bit half of a pool word, the
// span index covers the full pool including the last span of the last
// word, and dense vectors (v equal to the span size) fill it exactly.
func Test32BitConfinementSpanIndexing(t *testing.T) {
	const memory = 64 // 8 words → 16 spans
	c := MustNew(Config{MemoryBytes: memory, VectorBits: 8, WordBits: 32, Seed: 3})

	spansSeen := make(map[int]bool)
	hashRng := rand.New(rand.NewSource(29))
	var loc Location
	for trial := 0; trial < 4096; trial++ {
		c.Locate(hashRng.Uint64(), &loc)
		// spanOf also holds the vector to v bits inside one 32-bit span.
		spansSeen[spanOf(t, c, loc)] = true
	}
	// 4096 hashes over 16 spans: every span, including the last span of
	// the last word, must have been selected.
	for s := 0; s < 16; s++ {
		if !spansSeen[s] {
			t.Errorf("span %d never selected (span indexing does not cover the pool)", s)
		}
	}

	// Dense case: v == span size must yield exactly the full span mask,
	// whatever the rotation.
	dense := MustNew(Config{MemoryBytes: memory, VectorBits: 32, WordBits: 32, Seed: 3})
	for h := uint64(0); h < 256; h++ {
		dense.Locate(h*2654435761, &loc)
		lo := loc.Mask & 0xFFFFFFFF
		hi := loc.Mask >> 32
		if !(lo == 0xFFFFFFFF && hi == 0 || hi == 0xFFFFFFFF && lo == 0) {
			t.Fatalf("h=%d: dense 32-bit vector mask %016x is not one full span", h, loc.Mask)
		}
	}
}

// TestSelectBitExhaustive checks the k-th-set-bit helper against a naive
// scan over random words of every density, plus the degenerate edges.
func TestSelectBitExhaustive(t *testing.T) {
	if got := selectBit(1, 0); got != 1 {
		t.Errorf("selectBit(1,0) = %#x", got)
	}
	if got := selectBit(1<<63, 0); got != 1<<63 {
		t.Errorf("selectBit(1<<63,0) = %#x", got)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		x := rng.Uint64()
		switch trial % 4 {
		case 1:
			x &= rng.Uint64() & rng.Uint64() // sparse
		case 2:
			x |= rng.Uint64() | rng.Uint64() // dense
		case 3:
			x = ^uint64(0) >> uint(trial%64) // full low run, up to all 64 bits
		}
		x |= 1 << uint(trial%64) // never empty
		k := 0
		for i := 0; i < 64; i++ {
			if x&(1<<uint(i)) == 0 {
				continue
			}
			if got := selectBit(x, k); got != 1<<uint(i) {
				t.Fatalf("selectBit(%016x, %d) = %016x, want bit %d", x, k, got, i)
			}
			k++
		}
	}
}
