// Package flowreg implements FlowRegulator, the paper's primary
// contribution: a multi-layer RCC-based sketch that sits in front of the
// In-DRAM WSAF table and absorbs the vast majority of packet arrivals.
//
// Layer 1 is a plain RCC. When a flow's L1 virtual vector saturates at
// noise level z, the saturation event is itself counted probabilistically:
// one bit is set in the layer-2 RCC dedicated to noise class z, at the
// *same* word index and bit positions (hash reuse — one hash and one extra
// memory access per saturating packet). Only when the final layer
// saturates does the flow pass through to the WSAF, carrying the estimate
//
//	est_pkt  = Decode(z₁) × Decode(z₂) × … × Decode(z_L)
//	est_byte = est_pkt × len(triggering packet)
//
// which multiplies the per-flow retention capacity per layer instead of
// adding to it (Section III, Algorithm 1). The paper deploys two layers;
// Section V notes that for WSAF in TCAM "FlowRegulator can be configured
// to have enough margin by adjusting the vector size or even the number of
// layers" — Config.Layers implements exactly that knob.
//
// Packets arrive in bursts of flow hashes (ProcessBurst), and the
// passthroughs leave as a list; Process is a burst of one.
package flowreg

import (
	"errors"
	"fmt"

	"instameasure/internal/rcc"
	"instameasure/internal/telemetry"
)

// MaxLayers bounds the layer chain; beyond four layers the retention
// capacity exceeds any plausible flow size.
const MaxLayers = 4

// ErrLayers rejects out-of-range layer counts.
var ErrLayers = errors.New("flowreg: Layers must be in [2, 4]")

// Config parameterizes a Regulator. Layer holds the per-layer RCC
// settings; every counter in the chain is a Sibling of L1, so Locations
// resolved against L1 are valid everywhere.
type Config struct {
	Layer rcc.Config
	// Layers is the chain depth; 0 means 2 (the paper's deployed design).
	Layers int
}

// Emission is a passthrough event: the estimate FlowRegulator releases to
// the WSAF when a flow saturates every layer.
type Emission struct {
	// Unit is Decode(L1 noise): packets represented by one L2 bit.
	Unit float64
	// Count is the product of the higher layers' decodes — saturation
	// events represented by the final layer's vector.
	Count float64
	// EstPkts = Unit × Count.
	EstPkts float64
	// EstBytes = EstPkts × length of the packet that triggered the final
	// saturation (the paper's saturation-based byte sampling).
	EstBytes float64
}

// Telemetry carries the regulator's hot-path metric handles. All fields
// are optional shard handles into a shared registry; only the saturation
// paths touch them, so the per-packet cost of instrumentation is zero for
// the ~95% of packets that are absorbed without recycling a vector.
type Telemetry struct {
	// LayerRecycles[k] counts vector recycles (saturations) of layer k+1.
	LayerRecycles []telemetry.CounterShard
	// Emissions counts full passthroughs to the WSAF.
	Emissions telemetry.CounterShard
	// NoiseLevels observes the L1 noise level at each recycle — the
	// distribution behind the decode table's accuracy.
	NoiseLevels telemetry.HistogramShard
}

// Regulator is a multi-layer FlowRegulator. It is not safe for concurrent
// use; the multi-core pipeline gives each worker its own Regulator.
type Regulator struct {
	// layers[0] holds the single L1 counter; layers[k>0] holds one
	// counter per noise class, selected by the previous layer's
	// saturation noise z, at index z−1.
	layers [][]*rcc.Counter
	depth  int
	tm     *Telemetry
	// perBit[k][i] is the packets one set bit of layers[k][i] stands for
	// in EstimateResidual (k ≥ 1).
	perBit [][]float64

	packets   uint64
	l1Sats    uint64
	emissions uint64

	// ProcessBurst's scratch, grown to the largest burst seen: the L1
	// saturations and the passthroughs. one is Process's burst of one.
	sats []rcc.Saturation
	pass []Pass
	one  [1]uint64
}

// New builds a Regulator: one L1 counter plus (Layers−1) banks of
// per-noise-class counters with identical geometry. Total memory is
// therefore (1 + (Layers−1)·classes) × Layer.MemoryBytes — 4× for the
// paper's default of two layers and three noise classes.
func New(cfg Config) (*Regulator, error) {
	depth := cfg.Layers
	if depth == 0 {
		depth = 2
	}
	if depth < 2 || depth > MaxLayers {
		return nil, fmt.Errorf("%w (got %d)", ErrLayers, cfg.Layers)
	}
	l1, err := rcc.New(cfg.Layer)
	if err != nil {
		return nil, fmt.Errorf("layer 1: %w", err)
	}
	classes := l1.Config().NoiseMax // noise levels 1..NoiseMax

	layers := make([][]*rcc.Counter, depth)
	layers[0] = []*rcc.Counter{l1}
	for k := 1; k < depth; k++ {
		bank := make([]*rcc.Counter, classes)
		for i := range bank {
			bank[i] = l1.Sibling(uint64(k)<<32 | uint64(i))
		}
		layers[k] = bank
	}
	return &Regulator{
		layers: layers,
		depth:  depth,
		perBit: residualWeights(l1, depth, classes),
	}, nil
}

// residualWeights precomputes EstimateResidual's per-bit values. A bit of
// L2 class i stands for Decode(i+1) packets. Below a deeper bank the class
// path is not recorded (an inherent property of the chained design), so
// each layer beyond the second multiplies in the mean decode once more.
func residualWeights(l1 *rcc.Counter, depth, classes int) [][]float64 {
	perBit := make([][]float64, depth)
	perBit[1] = make([]float64, classes)
	var mean float64
	for i := range perBit[1] {
		perBit[1][i] = l1.Decode(i + 1)
		mean += perBit[1][i] / float64(classes)
	}
	deep := mean
	for k := 2; k < depth; k++ {
		deep *= mean
		perBit[k] = make([]float64, classes)
		for i := range perBit[k] {
			perBit[k][i] = deep
		}
	}
	return perBit
}

// MustNew is New for statically-known-good configs; it panics on error.
func MustNew(cfg Config) *Regulator {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Pass is one passthrough of a burst: I indexes the burst's hashes, Unit
// and Count are the estimate's factors (see Emission).
type Pass struct {
	I     int32
	Unit  float64
	Count float64
}

// Emission is the passthrough's estimate for a triggering packet of
// pktLen bytes.
func (p *Pass) Emission(pktLen int) Emission {
	est := p.Unit * p.Count
	return Emission{Unit: p.Unit, Count: p.Count, EstPkts: est, EstBytes: est * float64(pktLen)}
}

// Process records one packet of the flow with hash h and wire length
// pktLen: a burst of one through ProcessBurst. ok reports whether the
// packet passed through FlowRegulator; if so, em carries the estimate to
// accumulate into the WSAF.
//
//im:hotpath
func (r *Regulator) Process(h uint64, pktLen int) (em Emission, ok bool) {
	r.one[0] = h
	if pass := r.ProcessBurst(r.one[:]); len(pass) > 0 {
		return pass[0].Emission(pktLen), true
	}
	return Emission{}, false
}

// ProcessBatch is ProcessBurst with per-packet results: oks[i] reports
// whether packet i passed through and, where it did, ems[i] receives its
// emission for length pktLens[i]; the ems of absorbed packets are left as
// they were. pktLens, ems and oks must be at least as long as hashes.
//
//im:hotpath
func (r *Regulator) ProcessBatch(hashes []uint64, pktLens []int, ems []Emission, oks []bool) {
	clear(oks[:len(hashes)])
	for _, p := range r.ProcessBurst(hashes) {
		ems[p.I], oks[p.I] = p.Emission(pktLens[p.I]), true
	}
}

// ProcessBurst records one packet of each flow hash in hashes and returns
// the passthroughs in burst order, in the regulator's scratch (valid until
// its next call). Layer 1 runs over the whole burst in one pass, layers
// 2..L over the packets that saturated it: every counter is its own pool
// with its own draw stream and still sees its encodes in packet order, so
// the state is bit-identical to one packet at a time, whatever the split.
//
//im:hotpath
func (r *Regulator) ProcessBurst(hashes []uint64) []Pass {
	if cap(r.sats) < len(hashes) {
		r.sats, r.pass = make([]rcc.Saturation, 0, len(hashes)), make([]Pass, 0, len(hashes))
	}
	l1 := r.layers[0][0]
	r.packets += uint64(len(hashes))
	r.sats = l1.EncodeBurst(hashes, r.sats[:0])
	r.l1Sats += uint64(len(r.sats))
	pass := r.pass[:0]
saturations:
	for i := range r.sats {
		sat := &r.sats[i]
		z := int(sat.Noise)
		if r.tm != nil {
			r.tm.LayerRecycles[0].Inc()
			r.tm.NoiseLevels.Observe(uint64(z))
		}
		// The saturation's Location is valid in every layer: the banks
		// share L1's geometry by construction (see New), which is also the
		// paper's hash-reuse trick — one Locate serves the whole chain.
		unit, count := l1.Decode(z), 1.0
		for k := 1; k < r.depth; k++ {
			counter := r.layers[k][z-1]
			var ok bool
			if z, ok = counter.EncodeLoc(&sat.Loc); !ok {
				continue saturations
			}
			if r.tm != nil {
				r.tm.LayerRecycles[k].Inc()
			}
			count *= counter.Decode(z)
		}
		r.emissions++
		if r.tm != nil {
			r.tm.Emissions.Inc()
		}
		pass = append(pass, Pass{I: sat.I, Unit: unit, Count: count})
	}
	r.pass = pass
	return pass
}

// EstimateResidual estimates the packets of flow h still retained inside
// the layer chain: the unemitted L1 fill plus, per layer and noise class,
// the class's fill scaled by the packets one of its bits represents (see
// residualWeights). It does not allocate.
func (r *Regulator) EstimateResidual(h uint64) float64 {
	l1 := r.layers[0][0]
	var loc rcc.Location
	l1.Locate(h, &loc)
	total := l1.EstimateResidualLoc(&loc)
	for k := 1; k < r.depth; k++ {
		for i, counter := range r.layers[k] {
			total += counter.EstimateResidualLoc(&loc) * r.perBit[k][i]
		}
	}
	return total
}

// SetTelemetry attaches metric handles to the saturation paths. tm's
// LayerRecycles must have at least Layers entries. Pass nil to detach.
func (r *Regulator) SetTelemetry(tm *Telemetry) {
	if tm != nil && len(tm.LayerRecycles) < r.depth {
		panic(fmt.Sprintf("flowreg: telemetry needs %d layer counters, got %d",
			r.depth, len(tm.LayerRecycles)))
	}
	r.tm = tm
}

// Packets returns the number of packets processed.
func (r *Regulator) Packets() uint64 { return r.packets }

// L1Saturations returns how many packets saturated layer 1 (the rate a
// single-layer RCC would have forwarded at).
func (r *Regulator) L1Saturations() uint64 { return r.l1Sats }

// Emissions returns how many packets passed through every layer to the
// WSAF.
func (r *Regulator) Emissions() uint64 { return r.emissions }

// RegulationRate is Emissions/Packets — the paper's output-ips over
// input-pps metric (~1% for the default configuration on Zipf traffic).
func (r *Regulator) RegulationRate() float64 {
	if r.packets == 0 {
		return 0
	}
	return float64(r.emissions) / float64(r.packets)
}

// RetentionCapacity reports the maximum packets one flow can be retained
// for before passing through: the product of every layer's per-cycle
// maximum (Fig. 8a). It grows multiplicatively with vector size and layer
// count, versus additively for single-layer RCC.
func (r *Regulator) RetentionCapacity() float64 {
	per := r.layers[0][0].RetentionCapacity()
	total := 1.0
	for k := 0; k < r.depth; k++ {
		total *= per
	}
	return total
}

// MemoryBytes reports total sketch memory across all layers.
func (r *Regulator) MemoryBytes() int {
	var total int
	for _, bank := range r.layers {
		for _, c := range bank {
			total += c.MemoryBytes()
		}
	}
	return total
}

// Classes returns the number of per-layer noise classes.
func (r *Regulator) Classes() int { return len(r.layers[1]) }

// Layers returns the chain depth.
func (r *Regulator) Layers() int { return r.depth }

// Layer returns the resolved counter configuration every layer shares.
func (r *Regulator) Layer() rcc.Config { return r.layers[0][0].Config() }

// Reset clears every layer and all statistics.
func (r *Regulator) Reset() {
	for _, bank := range r.layers {
		for _, c := range bank {
			c.Reset()
		}
	}
	r.packets = 0
	r.l1Sats = 0
	r.emissions = 0
}
