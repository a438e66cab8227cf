// Analytical error envelope for the FlowRegulator estimator, derived from
// the RCC coupon-collector analysis (Nyang & Shin, ToN 2016).
//
// One RCC fill cycle throws packets uniformly at the v bits of a virtual
// vector until z zero bits remain. The number of throws is a sum of
// independent geometrics: going from j zero bits to j−1 takes Geom(j/v)
// throws, so
//
//	E[T]   = Σ_{j=z+1..v} v/j          = v·(H_v − H_z)
//	Var[T] = Σ_{j=z+1..v} (1−j/v)/(j/v)² = Σ v·(v−j)/j²
//
// Decode(z) returns exactly E[T], so each cycle's estimate is unbiased with
// coefficient of variation cv = √Var/E. A flow of n true packets emits
// roughly m = n/perEmission estimates (perEmission multiplies the layers'
// typical cycle lengths), each an independent cycle, so the relative
// standard error of the accumulated estimate decays as cv/√m. On top of
// the statistical term the envelope carries a retention term C/n: up to
// one full retention capacity C of packets sits inside the sketch when the
// window closes, and the residual estimator that accounts for it is
// approximate.
package oracle

import (
	"math"

	"instameasure/internal/core"
)

// CouponMean returns E[T] for one fill cycle of a v-bit vector stopping at
// z zero bits: v·(H_v − H_z).
func CouponMean(v, z int) float64 {
	var e float64
	for j := z + 1; j <= v; j++ {
		e += float64(v) / float64(j)
	}
	return e
}

// CouponVariance returns Var[T] for the same cycle: Σ_{j=z+1..v} v(v−j)/j².
func CouponVariance(v, z int) float64 {
	var s float64
	for j := z + 1; j <= v; j++ {
		s += float64(v) * float64(v-j) / (float64(j) * float64(j))
	}
	return s
}

// Envelope is the analytical relative-error bound for a FlowRegulator
// configuration.
type Envelope struct {
	// Resolved sketch geometry.
	VectorBits int
	NoiseMax   int
	Layers     int

	// PerEmission is the typical packet count one emission represents: the
	// product over layers of E[T] at the saturation threshold NoiseMax
	// (zeros hit the threshold exactly in the common, collision-free case).
	PerEmission float64
	// EmissionCV is the per-emission coefficient of variation: cycle CVs
	// compound across layers as √(Σ cv²) = √Layers·cv for equal layers.
	EmissionCV float64
	// Retention is the maximum packets one flow can hold inside the chain
	// before its first emission — the product of per-layer maxima (cycles
	// stopping at noise 1). Flows below this floor may never emit and are
	// excluded from envelope checks.
	Retention float64
	// SizeCV is the relative variation of per-packet sizes within a flow;
	// byte estimates sample the triggering packet's length, adding this
	// much per-emission noise to the byte dimension.
	SizeCV float64
	// Sigmas is the safety factor applied by PktBound/ByteBound.
	Sigmas float64
}

// NewEnvelope derives the envelope for an engine configuration, reading
// the geometry off the regulator the engine would build.
func NewEnvelope(cfg core.Config, sigmas float64) (Envelope, error) {
	reg, err := core.NewRegulator(cfg)
	if err != nil {
		return Envelope{}, err
	}
	if sigmas <= 0 {
		sigmas = 5
	}

	v, zMax, layers := reg.Layer().VectorBits, reg.Layer().NoiseMax, reg.Layers()
	cycleMean := CouponMean(v, zMax)
	cycleCV := math.Sqrt(CouponVariance(v, zMax)) / cycleMean
	env := Envelope{
		VectorBits:  v,
		NoiseMax:    zMax,
		Layers:      layers,
		PerEmission: math.Pow(cycleMean, float64(layers)),
		EmissionCV:  cycleCV * math.Sqrt(float64(layers)),
		Retention:   math.Pow(CouponMean(v, 1), float64(layers)),
		SizeCV:      0.15,
		Sigmas:      sigmas,
	}
	return env, nil
}

// PktBound returns the Sigmas-sigma relative-error bound for the packet
// estimate of a flow with true packet count n.
func (e Envelope) PktBound(n float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	m := n / e.PerEmission
	if m < 1 {
		m = 1
	}
	return e.Sigmas * (e.EmissionCV/math.Sqrt(m) + e.Retention/n)
}

// ByteBound returns the bound for the byte estimate: the packet-count noise
// plus the per-emission packet-size sampling noise, and a larger retention
// term (the residual byte backfill uses a mean-size approximation).
func (e Envelope) ByteBound(n float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	m := n / e.PerEmission
	if m < 1 {
		m = 1
	}
	cv := math.Sqrt(e.EmissionCV*e.EmissionCV + e.SizeCV*e.SizeCV)
	return e.Sigmas * (cv/math.Sqrt(m) + 1.5*e.Retention/n)
}

// Floor returns the flow size below which envelope checks do not apply:
// mult retention capacities (flows below ~1 capacity may never emit at
// all; between 1 and mult the retention term dominates and the bound is
// vacuous).
func (e Envelope) Floor(mult float64) float64 {
	if mult <= 0 {
		mult = 2
	}
	return mult * e.Retention
}
