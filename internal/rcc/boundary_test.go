package rcc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestDefaultNoiseThresholdSweep pins the paper's derived saturation
// threshold across every legal vector size: NoiseMax defaults to ⌈3v/8⌉
// (floored at 1), and the resolved threshold always satisfies
// 1 ≤ NoiseMax < v.
func TestDefaultNoiseThresholdSweep(t *testing.T) {
	for v := 2; v <= 64; v++ {
		c, err := New(Config{MemoryBytes: 64, VectorBits: v})
		if err != nil {
			t.Fatalf("v=%d: %v", v, err)
		}
		cfg := c.Config()
		want := (3*v + 7) / 8
		if want < 1 {
			want = 1
		}
		if cfg.NoiseMax != want {
			t.Errorf("v=%d: NoiseMax = %d, want ⌈3v/8⌉ = %d", v, cfg.NoiseMax, want)
		}
		if !(1 <= cfg.NoiseMax && cfg.NoiseMax < v) {
			t.Errorf("v=%d: resolved noise range 1..%d violates invariant", v, cfg.NoiseMax)
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
		{"v below 2", Config{MemoryBytes: 64, VectorBits: 1}, ErrVectorBits},
		{"noise max at v", Config{MemoryBytes: 64, VectorBits: 8, NoiseMax: 8}, ErrNoiseRange},
		{"noise max at v-1 ok", Config{MemoryBytes: 64, VectorBits: 8, NoiseMax: 7}, nil},
		{"noise max below 1", Config{MemoryBytes: 64, VectorBits: 8, NoiseMax: -1}, ErrNoiseRange},
		{"noise max at 1 ok", Config{MemoryBytes: 64, VectorBits: 8, NoiseMax: 1}, nil},
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
// operating points the system actually reads — noise 1 and NoiseMax —
// against a direct Monte-Carlo simulation of the fill process: throw balls
// uniformly at v bins until z remain empty.
func TestDecodeBruteForceCouponCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, v := range []int{4, 8, 16, 32} {
		c := MustNew(Config{MemoryBytes: 64, VectorBits: v})
		cfg := c.Config()
		for _, z := range []int{1, cfg.NoiseMax} {
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
		// Exact end point: z=v means zero throws.
		if c.Decode(v) != 0 {
			t.Errorf("v=%d: Decode(v) = %v, want 0", v, c.Decode(v))
		}
		if !(c.Decode(0) > c.Decode(1) && c.Decode(1) >= c.Decode(cfg.NoiseMax)) {
			t.Errorf("v=%d: decode table not monotone decreasing in noise", v)
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
