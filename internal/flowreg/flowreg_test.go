package flowreg

import (
	"errors"
	"math"
	"testing"

	"instameasure/internal/flowhash"
	"instameasure/internal/rcc"
)

func testConfig(memBytes int, seed uint64) Config {
	return Config{Layer: rcc.Config{
		MemoryBytes: memBytes,
		VectorBits:  8,
		Seed:        seed,
	}}
}

func TestNewValidatesLayerConfig(t *testing.T) {
	if _, err := New(Config{Layer: rcc.Config{VectorBits: 1}}); err == nil {
		t.Error("invalid layer config must fail")
	}
}

func TestClassesMatchNoiseRange(t *testing.T) {
	r := MustNew(testConfig(1024, 1))
	if r.Classes() != 3 {
		t.Errorf("8-bit layer yields %d L2 classes, want 3 (the paper's three counters)", r.Classes())
	}
}

func TestMemoryBytesIsFourLayers(t *testing.T) {
	r := MustNew(testConfig(32<<10, 1))
	if got := r.MemoryBytes(); got != 4*(32<<10) {
		t.Errorf("total memory = %d, want 4×32KB = %d (paper Section IV.D)", got, 4*(32<<10))
	}
}

// TestSingleFlowCounting is the fundamental accuracy property: for one
// flow of n packets, accumulated emissions plus residual approximate n.
func TestSingleFlowCounting(t *testing.T) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		r := MustNew(testConfig(4096, 3))
		h := flowhash.Sum64([]byte("elephant"), 1)
		var est float64
		for i := 0; i < n; i++ {
			if em, ok := r.Process(h, 1000); ok {
				est += em.EstPkts
			}
		}
		est += r.EstimateResidual(h)
		if relErr := math.Abs(est-float64(n)) / float64(n); relErr > 0.15 {
			t.Errorf("n=%d: estimate %.0f, rel err %.3f > 0.15", n, est, relErr)
		}
	}
}

func TestByteEstimateScalesWithPacketLen(t *testing.T) {
	r := MustNew(testConfig(4096, 5))
	h := uint64(99)
	const pktLen = 700
	const n = 50_000
	var estPkts, estBytes float64
	for i := 0; i < n; i++ {
		if em, ok := r.Process(h, pktLen); ok {
			estPkts += em.EstPkts
			estBytes += em.EstBytes
		}
	}
	if estPkts == 0 {
		t.Fatal("no emissions for a 50k-packet flow")
	}
	if got := estBytes / estPkts; math.Abs(got-pktLen) > 0.5 {
		t.Errorf("bytes/packets = %.1f, want %d (fixed-size packets)", got, pktLen)
	}
	trueBytes := float64(n * pktLen)
	if relErr := math.Abs(estBytes-trueBytes) / trueBytes; relErr > 0.15 {
		t.Errorf("byte estimate rel err %.3f > 0.15", relErr)
	}
}

func TestEmissionFields(t *testing.T) {
	r := MustNew(testConfig(4096, 7))
	h := uint64(1234)
	for i := 0; i < 100_000; i++ {
		em, ok := r.Process(h, 64)
		if !ok {
			continue
		}
		if em.Unit <= 0 || em.Count <= 0 {
			t.Fatalf("emission with non-positive unit/count: %+v", em)
		}
		if math.Abs(em.EstPkts-em.Unit*em.Count) > 1e-9 {
			t.Fatalf("EstPkts %v != Unit×Count %v", em.EstPkts, em.Unit*em.Count)
		}
		if math.Abs(em.EstBytes-em.EstPkts*64) > 1e-9 {
			t.Fatalf("EstBytes %v != EstPkts×len %v", em.EstBytes, em.EstPkts*64)
		}
		return
	}
	t.Fatal("no emission in 100k packets")
}

// TestRegulationBelowRCC verifies the headline claim: the two-layer design
// regulates roughly an order of magnitude harder than single-layer RCC on
// the same traffic.
func TestRegulationBelowRCC(t *testing.T) {
	const packets = 400_000
	mkStream := func(seed uint64) func() uint64 {
		rng := flowhash.NewRand(seed)
		return func() uint64 {
			if rng.Float64() < 0.8 {
				return flowhash.Mix64(uint64(rng.Intn(20)) + 1)
			}
			return flowhash.Mix64(uint64(20+rng.Intn(5000)) + 1)
		}
	}

	reg := MustNew(testConfig(32<<10, 1))
	next := mkStream(42)
	for i := 0; i < packets; i++ {
		reg.Process(next(), 500)
	}

	single := rcc.MustNew(rcc.Config{MemoryBytes: 32 << 10, VectorBits: 8, Seed: 1})
	next = mkStream(42)
	for i := 0; i < packets; i++ {
		single.Encode(next())
	}

	frRate := reg.RegulationRate()
	rccRate := float64(single.Saturations()) / float64(single.Encodes())
	if frRate <= 0 {
		t.Fatal("FlowRegulator emitted nothing")
	}
	if frRate*5 > rccRate {
		t.Errorf("FR rate %.4f not ≪ RCC rate %.4f (want ≥5× reduction)", frRate, rccRate)
	}
	if frRate > 0.05 {
		t.Errorf("FR regulation rate %.4f above 5%% (paper: ~1%%)", frRate)
	}
	if reg.L1Saturations() <= reg.Emissions() {
		t.Error("L1 saturations must exceed L2 emissions")
	}
}

func TestRetentionCapacityMultiplicative(t *testing.T) {
	r := MustNew(testConfig(1024, 1))
	single := rcc.MustNew(rcc.Config{MemoryBytes: 1024, VectorBits: 8})
	if r.RetentionCapacity() < 5*single.RetentionCapacity() {
		t.Errorf("FR retention %.1f not ≫ RCC retention %.1f",
			r.RetentionCapacity(), single.RetentionCapacity())
	}
	// The paper quotes ~100 packets for the 16-bit (8+8) configuration.
	if rc := r.RetentionCapacity(); rc < 50 || rc > 400 {
		t.Errorf("FR retention capacity %.1f outside plausible band [50,400]", rc)
	}
}

func TestResidualZeroWhenFresh(t *testing.T) {
	r := MustNew(testConfig(1024, 2))
	if res := r.EstimateResidual(555); res != 0 {
		t.Errorf("fresh regulator residual = %v, want 0", res)
	}
	r.Process(555, 100)
	if res := r.EstimateResidual(555); res <= 0 {
		t.Errorf("residual after a packet = %v, want positive", res)
	}
}

// TestResidualWeights pins the precomputed per-bit values: a bit of L2
// class i stands for Decode(i+1) packets; below a deeper bank the class path
// is not recorded, so layer k ≥ 3 stands for the mean decode to the power
// k−1 whatever the class.
func TestResidualWeights(t *testing.T) {
	cfg := testConfig(1024, 2)
	cfg.Layers = MaxLayers
	r := MustNew(cfg)
	l1 := r.layers[0][0]
	var mean float64
	for i := 0; i < r.Classes(); i++ {
		unit := l1.Decode(i + 1)
		if got := r.perBit[1][i]; got != unit {
			t.Errorf("L2 class %d: per-bit %v, want Decode = %v", i, got, unit)
		}
		mean += unit / float64(r.Classes())
	}
	for k := 2; k < MaxLayers; k++ {
		want := math.Pow(mean, float64(k))
		for i, got := range r.perBit[k] {
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("L%d class %d: per-bit %v, want %v", k+1, i, got, want)
			}
		}
	}
}

func TestMiceNeverPassThrough(t *testing.T) {
	// Flows below the retention capacity should almost never reach the
	// WSAF. Feed 1000 distinct 3-packet mice through a roomy pool.
	r := MustNew(testConfig(64<<10, 8))
	var passed int
	for f := 0; f < 1000; f++ {
		h := flowhash.Mix64(uint64(f) + 1)
		for p := 0; p < 3; p++ {
			if _, ok := r.Process(h, 64); ok {
				passed++
			}
		}
	}
	if passed > 5 {
		t.Errorf("%d of 1000 three-packet mice passed through; want ≤5", passed)
	}
}

func TestStatsAndReset(t *testing.T) {
	r := MustNew(testConfig(1024, 4))
	for i := 0; i < 10_000; i++ {
		r.Process(uint64(7), 100)
	}
	if r.Packets() != 10_000 {
		t.Errorf("Packets = %d, want 10000", r.Packets())
	}
	if r.Emissions() == 0 || r.L1Saturations() == 0 {
		t.Error("expected saturations for a 10k-packet flow")
	}
	r.Reset()
	if r.Packets() != 0 || r.Emissions() != 0 || r.L1Saturations() != 0 {
		t.Error("Reset must clear counters")
	}
	if r.RegulationRate() != 0 {
		t.Error("RegulationRate after reset must be 0")
	}
	if res := r.EstimateResidual(7); res != 0 {
		t.Errorf("residual after reset = %v, want 0", res)
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a := MustNew(testConfig(2048, 11))
	b := MustNew(testConfig(2048, 11))
	for i := 0; i < 20_000; i++ {
		h := flowhash.Mix64(uint64(i%13) + 1)
		emA, okA := a.Process(h, 200)
		emB, okB := b.Process(h, 200)
		if okA != okB || emA != emB {
			t.Fatalf("packet %d: instances diverged", i)
		}
	}
}

func TestLayersValidation(t *testing.T) {
	base := rcc.Config{MemoryBytes: 1024, VectorBits: 8}
	if _, err := New(Config{Layer: base, Layers: 1}); !errors.Is(err, ErrLayers) {
		t.Errorf("Layers=1 err = %v, want ErrLayers", err)
	}
	if _, err := New(Config{Layer: base, Layers: 5}); !errors.Is(err, ErrLayers) {
		t.Errorf("Layers=5 err = %v, want ErrLayers", err)
	}
	r, err := New(Config{Layer: base, Layers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Layers() != 3 {
		t.Errorf("Layers() = %d", r.Layers())
	}
	// 1 + 2 banks × 3 classes = 7 counters.
	if got := r.MemoryBytes(); got != 7*1024 {
		t.Errorf("3-layer memory = %d, want 7KB", got)
	}
}

func TestThreeLayerRegulatesHarderThanTwo(t *testing.T) {
	const packets = 400_000
	mkStream := func(seed uint64) func() uint64 {
		rng := flowhash.NewRand(seed)
		return func() uint64 {
			if rng.Float64() < 0.8 {
				return flowhash.Mix64(uint64(rng.Intn(20)) + 1)
			}
			return flowhash.Mix64(uint64(20+rng.Intn(5000)) + 1)
		}
	}
	rate := func(layers int) float64 {
		r := MustNew(Config{Layer: rcc.Config{
			MemoryBytes: 32 << 10, VectorBits: 8, Seed: 1,
		}, Layers: layers})
		next := mkStream(42)
		for i := 0; i < packets; i++ {
			r.Process(next(), 500)
		}
		return r.RegulationRate()
	}
	r2, r3 := rate(2), rate(3)
	if r3 <= 0 {
		t.Fatal("3-layer regulator emitted nothing for heavy elephants")
	}
	if r3*3 > r2 {
		t.Errorf("3-layer rate %.5f not ≪ 2-layer rate %.5f", r3, r2)
	}
}

func TestThreeLayerSingleFlowAccuracy(t *testing.T) {
	r := MustNew(Config{Layer: rcc.Config{
		MemoryBytes: 4096, VectorBits: 8, Seed: 3,
	}, Layers: 3})
	h := flowhash.Sum64([]byte("mega elephant"), 1)
	const n = 500_000
	var est float64
	for i := 0; i < n; i++ {
		if em, ok := r.Process(h, 1000); ok {
			est += em.EstPkts
		}
	}
	est += r.EstimateResidual(h)
	if relErr := math.Abs(est-float64(n)) / float64(n); relErr > 0.25 {
		t.Errorf("3-layer estimate %.0f, rel err %.3f > 0.25", est, relErr)
	}
}

func TestRetentionCapacityScalesWithLayers(t *testing.T) {
	base := rcc.Config{MemoryBytes: 1024, VectorBits: 8}
	r2 := MustNew(Config{Layer: base, Layers: 2})
	r3 := MustNew(Config{Layer: base, Layers: 3})
	if r3.RetentionCapacity() <= r2.RetentionCapacity()*2 {
		t.Errorf("3-layer retention %.0f not ≫ 2-layer %.0f",
			r3.RetentionCapacity(), r2.RetentionCapacity())
	}
}
