// Package memmodel provides the memory-hierarchy cost model used to replay
// the paper's motivation arguments (Fig. 1 and Fig. 7) without the actual
// TCAM/SRAM/DRAM hardware.
//
// The question those figures answer is: after the front-end sketch regulates
// the WSAF insertion rate to `ips`, does that rate fit within DRAM's speed
// budget, given that the packet stream arrives at `pps` paced by the
// (SRAM-speed) sketch? SRAM is 10–20× faster per access than DRAM, so the
// sustainable ratio ips/pps — the *speed margin* — is roughly 5–10%.
package memmodel

// Tier identifies a memory technology.
type Tier int

// Memory tiers, fastest to slowest.
const (
	TierTCAM Tier = iota + 1
	TierSRAM
	TierDRAM
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierTCAM:
		return "TCAM"
	case TierSRAM:
		return "SRAM"
	case TierDRAM:
		return "DRAM"
	default:
		return "unknown"
	}
}

// Model holds per-access latencies for each tier and the probe-amplification
// factor for WSAF operations. The zero value is not valid; use Default or
// fill every field.
type Model struct {
	// TCAMAccessNs is the single-access latency of TCAM.
	TCAMAccessNs float64
	// SRAMAccessNs is the single-access latency of SRAM.
	SRAMAccessNs float64
	// DRAMAccessNs is the single-access latency of DRAM.
	DRAMAccessNs float64
	// WSAFAccessesPerOp is the mean number of memory accesses one WSAF
	// insert/update performs (probing, entry write). 0 means 1, matching
	// the paper's margin arithmetic, which compares raw access latencies;
	// set 2 to additionally charge the probe+write pair.
	WSAFAccessesPerOp float64
	// DRAMPrefetchedNs is the effective per-access DRAM cost inside the
	// engine's two-pass burst (wsaf.PrefetchHashed for every passthrough,
	// then AccumulateHashed for each): the prefetch pass issues the
	// probe-slot loads ahead of the probe pass, so misses overlap instead
	// of serializing and only the bandwidth/row-cycle floor remains. Commodity cores overlap 10–16 line fills but the
	// probe pass still pays dependent work per entry, so the achieved —
	// not theoretical — overlap is about 2×. 0 disables the prefetch
	// model (PrefetchSpeedup returns 1).
	DRAMPrefetchedNs float64
	// PrefetchIssueNs is the per-access overhead of the prefetch pass
	// itself: the hint instruction plus the second traversal of the op
	// window.
	PrefetchIssueNs float64
	// HotCacheHitNs is the full per-packet cost of a hot-flow promotion
	// cache hit: one set probe of an L2-resident tag line plus the exact
	// counter update — SRAM-tier work, no sketch, no regulator, no DRAM.
	// 0 disables the cache model (CacheSpeedup returns 1).
	HotCacheHitNs float64
	// SketchAccessesPerPacket is the number of SRAM accesses the
	// FlowRegulator pipeline performs per packet (vector-table load, layer
	// reads/writes, the cardinality sketch); the margin arithmetic charges
	// one access, but the cache-bypass model needs the real count because
	// a cache hit skips all of it. 0 means 1.
	SketchAccessesPerPacket float64
}

// Default returns the model used throughout the reproduction: SRAM 15×
// faster than DRAM, inside the paper's 10–20× band, giving the paper's
// 5–10% speed margin.
func Default() Model {
	return Model{
		TCAMAccessNs:      0.5,
		SRAMAccessNs:      1.5,
		DRAMAccessNs:      22.5,
		WSAFAccessesPerOp: 1,
		DRAMPrefetchedNs:  11.5,
		PrefetchIssueNs:   1.0,
		HotCacheHitNs:     3.0,
		// One vector-table load, the L1 word read + write, and the HLL
		// register update: four SRAM touches per regulated packet. (The
		// second layer is touched only by the ~13% of packets that
		// saturate the first.) With the table-driven regulator at ~26 ns
		// against a ~14 ns cache probe, this models — and the cross-check
		// measures — a cache that barely pays for itself in speed.
		SketchAccessesPerPacket: 4,
	}
}

// UncachedPacketNs is the modeled mean per-packet memory cost without the
// promotion cache: every packet pays the SRAM-speed sketch pipeline, and
// the regulated fraction (ips/pps) additionally pays a WSAF DRAM
// operation.
func (m Model) UncachedPacketNs(regulationRatio float64) float64 {
	per := m.WSAFAccessesPerOp
	if per <= 0 {
		per = 1
	}
	sketch := m.SketchAccessesPerPacket
	if sketch <= 0 {
		sketch = 1
	}
	return sketch*m.SRAMAccessNs + regulationRatio*m.DRAMAccessNs*per
}

// CachedPacketNs is the modeled mean per-packet memory cost with the
// promotion cache fronting the path: hits (hitRate of packets) pay only
// the cache probe; misses pay the probe that failed plus the full
// uncached cost. regulationRatio is the regulator's ips/pps over the
// misses that reach it.
func (m Model) CachedPacketNs(hitRate, regulationRatio float64) float64 {
	if m.HotCacheHitNs <= 0 {
		return m.UncachedPacketNs(regulationRatio)
	}
	miss := m.HotCacheHitNs + m.UncachedPacketNs(regulationRatio)
	return hitRate*m.HotCacheHitNs + (1-hitRate)*miss
}

// CacheSpeedup returns the modeled uncached/cached per-packet cost ratio
// at the given hit rate — the claimed win the hot-cache cross-check holds
// against the measured ProcessBatch ns/op delta, the same way
// PrefetchSpeedup is held against the WSAF accumulate benchmarks.
func (m Model) CacheSpeedup(hitRate, regulationRatio float64) float64 {
	if m.HotCacheHitNs <= 0 {
		return 1
	}
	return m.UncachedPacketNs(regulationRatio) / m.CachedPacketNs(hitRate, regulationRatio)
}

// PrefetchSpeedup returns the modeled scalar/batched cost ratio for a
// DRAM-resident WSAF: a plain Accumulate loop pays the full access
// latency per probe, the engine's two-pass burst (prefetch, then
// accumulate) pays the overlapped cost plus the prefetch-pass overhead. The default model gives 1.8×;
// TestPrefetchModelCrossCheck holds this against the measured
// BenchmarkWSAFAccumulate vs BenchmarkWSAFAccumulateBatch delta.
func (m Model) PrefetchSpeedup() float64 {
	if m.DRAMPrefetchedNs <= 0 {
		return 1
	}
	return m.DRAMAccessNs / (m.DRAMPrefetchedNs + m.PrefetchIssueNs)
}

// SpeedMargin returns the sustainable ips/pps ratio when the WSAF lives in
// `wsafTier` and per-packet sketch work runs at `sketchTier` speed: the
// fraction of the packet budget one WSAF operation consumes, inverted.
func (m Model) SpeedMargin(sketchTier, wsafTier Tier) float64 {
	per := m.WSAFAccessesPerOp
	if per <= 0 {
		per = 1
	}
	return m.accessNs(sketchTier) / (m.accessNs(wsafTier) * per)
}

func (m Model) accessNs(t Tier) float64 {
	switch t {
	case TierTCAM:
		return m.TCAMAccessNs
	case TierSRAM:
		return m.SRAMAccessNs
	default:
		return m.DRAMAccessNs
	}
}
