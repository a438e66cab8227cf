package oracle

import (
	"math"
	"math/rand"
	"testing"

	"instameasure/internal/core"
)

// TestCouponMomentsBruteForce checks the closed-form cycle moments against
// a direct Monte-Carlo simulation of the coupon-collector process: throw
// balls uniformly at v bins until z remain empty, record the throw count.
func TestCouponMomentsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	for _, tc := range []struct{ v, z int }{{8, 1}, {8, 3}, {16, 6}, {4, 1}, {32, 12}} {
		const trials = 20_000
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			filled := make([]bool, tc.v)
			zeros, throws := tc.v, 0
			for zeros > tc.z {
				throws++
				if b := rng.Intn(tc.v); !filled[b] {
					filled[b] = true
					zeros--
				}
			}
			f := float64(throws)
			sum += f
			sumSq += f * f
		}
		mean := sum / trials
		variance := sumSq/trials - mean*mean

		wantMean := CouponMean(tc.v, tc.z)
		wantVar := CouponVariance(tc.v, tc.z)
		if rel := math.Abs(mean-wantMean) / wantMean; rel > 0.02 {
			t.Errorf("v=%d z=%d: simulated mean %.3f vs analytic %.3f (%.1f%% off)",
				tc.v, tc.z, mean, wantMean, rel*100)
		}
		if rel := math.Abs(variance-wantVar) / wantVar; rel > 0.08 {
			t.Errorf("v=%d z=%d: simulated variance %.3f vs analytic %.3f (%.1f%% off)",
				tc.v, tc.z, variance, wantVar, rel*100)
		}
	}
}

func TestEnvelopeDefaults(t *testing.T) {
	env, err := NewEnvelope(core.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Paper defaults: v=8 → NoiseMax=⌈3·8/8⌉=3, 2 layers.
	if env.VectorBits != 8 || env.NoiseMax != 3 || env.Layers != 2 {
		t.Errorf("resolved geometry = %+v", env)
	}
	// The zero config is the explicit paper configuration: 32 KB L1,
	// 8-bit vectors, two layers.
	explicit, err := NewEnvelope(core.Config{SketchMemoryBytes: 32 << 10, VectorBits: 8, Layers: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if explicit != env {
		t.Errorf("explicit defaults resolve to %+v, zero config to %+v", explicit, env)
	}
	if env.Sigmas != 5 {
		t.Errorf("default Sigmas = %v, want 5", env.Sigmas)
	}
	// Retention = E[8→1]² = (8(H8−H1))² ≈ 13.743² ≈ 188.9.
	if math.Abs(env.Retention-188.9) > 0.5 {
		t.Errorf("Retention = %.2f, want ≈188.9", env.Retention)
	}
	// PerEmission = E[8→3]² ≈ 7.076² ≈ 50.07 — strictly below retention.
	if !(env.PerEmission < env.Retention) {
		t.Errorf("PerEmission %.1f must be below Retention %.1f", env.PerEmission, env.Retention)
	}
}

func TestBoundMonotonicity(t *testing.T) {
	env, err := NewEnvelope(core.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Bigger flows must never have a looser bound.
	prev := math.Inf(1)
	for n := 100.0; n <= 1e7; n *= 3 {
		b := env.PktBound(n)
		if b > prev {
			t.Errorf("PktBound(%g) = %.5f > PktBound at smaller n %.5f", n, b, prev)
		}
		if bb := env.ByteBound(n); bb < b {
			t.Errorf("ByteBound(%g) = %.5f below PktBound %.5f (bytes carry extra noise)", n, bb, b)
		}
		prev = b
	}
	if !math.IsInf(env.PktBound(0), 1) {
		t.Error("PktBound(0) must be +Inf")
	}
	if env.Floor(0) != 2*env.Retention {
		t.Errorf("Floor default = %v, want 2×Retention", env.Floor(0))
	}
}
