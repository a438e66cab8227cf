package rcc

import (
	"errors"
	"math"
	"testing"

	"instameasure/internal/flowhash"
)

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr error
	}{
		{"vector too small", Config{VectorBits: 1}, ErrVectorBits},
		{"vector too big", Config{VectorBits: 65}, ErrVectorBits},
		{"noise max below 1", Config{VectorBits: 8, NoiseMax: -1}, ErrNoiseRange},
		{"noise max >= v", Config{VectorBits: 8, NoiseMax: 8}, ErrNoiseRange},
		{"ok defaults", Config{VectorBits: 8}, nil},
		{"ok explicit", Config{VectorBits: 16, NoiseMax: 6, MemoryBytes: 1024}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("New err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestDefaultsDerivation(t *testing.T) {
	c := MustNew(Config{VectorBits: 8})
	cfg := c.Config()
	if cfg.NoiseMax != 3 {
		t.Errorf("default NoiseMax for v=8 is %d, want 3 (the paper's three noise classes)", cfg.NoiseMax)
	}
	c16 := MustNew(Config{VectorBits: 16})
	if got := c16.Config().NoiseMax; got != 6 {
		t.Errorf("default NoiseMax for v=16 is %d, want 6", got)
	}
}

func TestMemoryRounding(t *testing.T) {
	c := MustNew(Config{VectorBits: 8, MemoryBytes: 100})
	if c.MemoryBytes()%8 != 0 || c.MemoryBytes() < 100 {
		t.Errorf("MemoryBytes = %d, want word-aligned >= 100", c.MemoryBytes())
	}
	tiny := MustNew(Config{VectorBits: 8, MemoryBytes: 1})
	if len(tiny.words) < 1 {
		t.Error("must allocate at least one word")
	}
}

func TestLocateDeterministic(t *testing.T) {
	c := MustNew(Config{VectorBits: 8, MemoryBytes: 1024})
	var a, b Location
	c.Locate(12345, &a)
	c.Locate(12345, &b)
	if a != b {
		t.Error("Locate must be deterministic per hash")
	}
}

func TestDecodeTableMonotonic(t *testing.T) {
	c := MustNew(Config{VectorBits: 8})
	prev := math.Inf(1)
	for z := 1; z <= 7; z++ {
		d := c.Decode(z)
		if d <= 0 {
			t.Errorf("Decode(%d) = %v, want positive", z, d)
		}
		if d >= prev {
			t.Errorf("Decode(%d)=%v not < Decode(%d)=%v", z, d, z-1, prev)
		}
		prev = d
	}
}

func TestDecodeCouponCollectorValues(t *testing.T) {
	c := MustNew(Config{VectorBits: 8})
	// v(H_v − H_3) = 8(1/4+1/5+1/6+1/7+1/8) ≈ 7.076
	if got := c.Decode(3); math.Abs(got-7.0762) > 0.001 {
		t.Errorf("Decode(3) = %v, want ≈7.076", got)
	}
	// v(H_v − H_1) ≈ 13.743
	if got := c.Decode(1); math.Abs(got-13.7429) > 0.001 {
		t.Errorf("Decode(1) = %v, want ≈13.743", got)
	}
}

// TestSingleFlowCounting feeds one flow n packets through a dedicated
// sketch and checks the accumulated decoded estimate against n. This is
// the core correctness property of saturation-based decoding.
func TestSingleFlowCounting(t *testing.T) {
	for _, n := range []int{100, 1_000, 10_000} {
		c := MustNew(Config{VectorBits: 8, MemoryBytes: 4096, Seed: 3})
		h := flowhash.Sum64([]byte("the flow"), 9)
		var est float64
		for i := 0; i < n; i++ {
			if z, sat := c.Encode(h); sat {
				est += c.Decode(z)
			}
		}
		est += c.EstimateResidual(h)
		if err := math.Abs(est-float64(n)) / float64(n); err > 0.15 {
			t.Errorf("n=%d: estimate %.1f, rel err %.3f > 0.15", n, est, err)
		}
	}
}

// TestManyFlowAccuracy checks the estimator across many flows sharing a
// pool, where collision noise is present.
func TestManyFlowAccuracy(t *testing.T) {
	c := MustNew(Config{VectorBits: 8, MemoryBytes: 64 << 10, Seed: 5})
	const flows = 200
	const perFlow = 2_000
	est := make([]float64, flows)
	hashes := make([]uint64, flows)
	for i := range hashes {
		hashes[i] = flowhash.Mix64(uint64(i) + 1)
	}
	for p := 0; p < perFlow; p++ {
		for i, h := range hashes {
			if z, sat := c.Encode(h); sat {
				est[i] += c.Decode(z)
			}
		}
	}
	var sumErr float64
	for i := range est {
		e := est[i] + c.EstimateResidual(hashes[i])
		sumErr += math.Abs(e-perFlow) / perFlow
	}
	if mean := sumErr / flows; mean > 0.15 {
		t.Errorf("mean rel err %.3f > 0.15 across %d flows", mean, flows)
	}
}

func TestSaturationRecyclesVector(t *testing.T) {
	c := MustNew(Config{VectorBits: 8, MemoryBytes: 1024, Seed: 1})
	h := uint64(42)
	var loc Location
	c.Locate(h, &loc)
	for i := 0; i < 10_000; i++ {
		if _, sat := c.EncodeLoc(&loc); sat {
			// After recycling, the vector's bits must all be clear, so
			// the residual estimate is zero.
			if res := c.EstimateResidualLoc(&loc); res != 0 {
				t.Fatalf("residual after recycle = %v, want 0", res)
			}
			return
		}
	}
	t.Fatal("vector never saturated in 10k packets")
}

func TestSaturationNoiseWithinRange(t *testing.T) {
	c := MustNew(Config{VectorBits: 8, MemoryBytes: 256, Seed: 2})
	cfg := c.Config()
	// Hammer a small pool with many flows to provoke collision noise.
	for i := 0; i < 50_000; i++ {
		h := flowhash.Mix64(uint64(i % 37))
		if z, sat := c.Encode(h); sat {
			if z < 1 || z > cfg.NoiseMax {
				t.Fatalf("saturation noise %d outside [1,%d]", z, cfg.NoiseMax)
			}
		}
	}
}

func TestRegulationRateBand(t *testing.T) {
	// A Zipf-ish stream through an 8-bit RCC regulates to roughly
	// 10–20% of packets (Fig. 1's observation).
	c := MustNew(Config{VectorBits: 8, MemoryBytes: 128 << 10, Seed: 7})
	rng := flowhash.NewRand(11)
	const packets = 500_000
	for i := 0; i < packets; i++ {
		// 80% of packets from 20 elephants, the rest from a mice tail.
		var flow uint64
		if rng.Float64() < 0.8 {
			flow = uint64(rng.Intn(20))
		} else {
			flow = uint64(20 + rng.Intn(5000))
		}
		c.Encode(flowhash.Mix64(flow + 1))
	}
	rate := float64(c.Saturations()) / float64(c.Encodes())
	if rate < 0.05 || rate > 0.30 {
		t.Errorf("RCC regulation rate %.3f outside the plausible 5–30%% band", rate)
	}
}

func TestRetentionCapacityGrowsWithVector(t *testing.T) {
	prev := 0.0
	for _, v := range []int{8, 16, 32, 64} {
		c := MustNew(Config{VectorBits: v, MemoryBytes: 4096})
		rc := c.RetentionCapacity()
		if rc <= prev {
			t.Errorf("v=%d: retention %.1f not greater than previous %.1f", v, rc, prev)
		}
		prev = rc
	}
	// Additive growth: even a 64-bit RCC vector retains under ~300
	// packets (the paper: 77 with its decoding).
	if prev > 400 {
		t.Errorf("64-bit RCC retention %.1f implausibly high", prev)
	}
}

func TestEstimateResidualTracksFill(t *testing.T) {
	c := MustNew(Config{VectorBits: 16, MemoryBytes: 4096, Seed: 9})
	h := uint64(77)
	if r := c.EstimateResidual(h); r != 0 {
		t.Fatalf("fresh vector residual = %v, want 0", r)
	}
	c.Encode(h)
	c.Encode(h)
	if r := c.EstimateResidual(h); r <= 0 {
		t.Errorf("residual after 2 packets = %v, want positive", r)
	}
}

func TestReset(t *testing.T) {
	c := MustNew(Config{VectorBits: 8, MemoryBytes: 1024})
	for i := 0; i < 1000; i++ {
		c.Encode(uint64(i))
	}
	if c.Encodes() == 0 || c.FillRatio() == 0 {
		t.Fatal("setup failed: no activity recorded")
	}
	c.Reset()
	if c.Encodes() != 0 || c.Saturations() != 0 || c.FillRatio() != 0 {
		t.Error("Reset must clear pool and counters")
	}
}

func TestFillRatioBounds(t *testing.T) {
	c := MustNew(Config{VectorBits: 8, MemoryBytes: 64})
	if c.FillRatio() != 0 {
		t.Error("fresh pool fill ratio must be 0")
	}
	for i := 0; i < 10_000; i++ {
		c.Encode(uint64(i))
	}
	if fr := c.FillRatio(); fr <= 0 || fr > 1 {
		t.Errorf("fill ratio %v out of (0,1]", fr)
	}
}

func TestWordSharingNoiseOnlyInflates(t *testing.T) {
	// Property: collision noise can only cause over-estimation, never
	// under-estimation, for a flow measured alongside interferers.
	const n = 5_000
	solo := MustNew(Config{VectorBits: 8, MemoryBytes: 64, Seed: 4})
	h := uint64(123)
	var soloEst float64
	for i := 0; i < n; i++ {
		if z, sat := solo.Encode(h); sat {
			soloEst += solo.Decode(z)
		}
	}
	soloEst += solo.EstimateResidual(h)

	noisy := MustNew(Config{VectorBits: 8, MemoryBytes: 64, Seed: 4})
	var noisyEst float64
	for i := 0; i < n; i++ {
		if z, sat := noisy.Encode(h); sat {
			noisyEst += noisy.Decode(z)
		}
		// Interleave heavy interfering traffic into the tiny pool.
		for j := 0; j < 3; j++ {
			noisy.Encode(flowhash.Mix64(uint64(i*3 + j)))
		}
	}
	noisyEst += noisy.EstimateResidual(h)

	if noisyEst < soloEst*0.95 {
		t.Errorf("noise deflated estimate: solo %.0f vs noisy %.0f", soloEst, noisyEst)
	}
}

// TestHotpathZeroAllocs: the //im:hotpath roots Locate, EncodeLoc and
// EncodeBurst allocate nothing, on packets that saturate their vector and
// packets that do not (a 64-byte pool saturates within every run).
// EncodeBurst appends into the caller's capacity, as the regulator sizes
// it.
func TestHotpathZeroAllocs(t *testing.T) {
	hashes := make([]uint64, 256)
	for i := range hashes {
		hashes[i] = flowhash.Mix64(uint64(i))
	}
	c := MustNew(Config{VectorBits: 8, MemoryBytes: 64, Seed: 5})
	sats := make([]Saturation, 0, len(hashes))
	var loc Location
	var plain, saturated int
	allocs := testing.AllocsPerRun(100, func() {
		for _, h := range hashes {
			c.Locate(h, &loc)
			if _, sat := c.EncodeLoc(&loc); sat {
				saturated++
			} else {
				plain++
			}
		}
		sats = c.EncodeBurst(hashes, sats[:0])
	})
	if allocs != 0 {
		t.Errorf("Locate/EncodeLoc/EncodeBurst allocate %.2f objects per run, want 0", allocs)
	}
	if plain == 0 || saturated < 101 || len(sats) == 0 {
		t.Errorf("a run missed a branch: %d plain, %d saturated encodes, %d burst saturations", plain, saturated, len(sats))
	}
}
