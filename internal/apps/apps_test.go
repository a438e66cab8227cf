package apps

import (
	"math"
	"testing"

	"instameasure/internal/wsaf"
)

func TestFlowSizeEntropy(t *testing.T) {
	if FlowSizeEntropy(nil) != 0 {
		t.Error("empty entropy must be 0")
	}
	// Uniform distribution over 4 flows: H = 2 bits.
	uniform := []wsaf.Entry{{Pkts: 10}, {Pkts: 10}, {Pkts: 10}, {Pkts: 10}}
	if h := FlowSizeEntropy(uniform); math.Abs(h-2) > 1e-12 {
		t.Errorf("uniform entropy = %v, want 2", h)
	}
	if n := NormalizedFlowSizeEntropy(uniform); math.Abs(n-1) > 1e-12 {
		t.Errorf("normalized uniform entropy = %v, want 1", n)
	}
	// Concentrated distribution: entropy near 0.
	skewed := []wsaf.Entry{{Pkts: 1_000_000}, {Pkts: 1}, {Pkts: 1}}
	if h := FlowSizeEntropy(skewed); h > 0.01 {
		t.Errorf("concentrated entropy = %v, want ≈0", h)
	}
	if NormalizedFlowSizeEntropy([]wsaf.Entry{{Pkts: 5}}) != 0 {
		t.Error("single flow normalized entropy must be 0")
	}
}

func TestEntropyDropsUnderConcentration(t *testing.T) {
	// The anomaly signal: a DDoS (traffic concentrating on one flow)
	// must lower normalized flow-size entropy.
	balanced := make([]wsaf.Entry, 100)
	for i := range balanced {
		balanced[i] = wsaf.Entry{Pkts: 100}
	}
	attacked := make([]wsaf.Entry, 100)
	copy(attacked, balanced)
	attacked[0] = wsaf.Entry{Pkts: 1_000_000}

	hb := NormalizedFlowSizeEntropy(balanced)
	ha := NormalizedFlowSizeEntropy(attacked)
	if ha >= hb {
		t.Errorf("entropy did not drop under concentration: %.3f -> %.3f", hb, ha)
	}
	if hb < 0.99 {
		t.Errorf("balanced normalized entropy = %.3f, want ≈1", hb)
	}
}
