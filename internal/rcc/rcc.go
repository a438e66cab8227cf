// Package rcc implements the Recyclable Counter with Confinement (RCC) of
// Nyang and Shin (IEEE/ACM ToN 2016), the sketch primitive InstaMeasure's
// FlowRegulator is built from.
//
// Each flow owns a small *virtual vector* of VectorBits bit positions, all
// confined within a single machine word of a shared bit pool so that one
// memory access serves the whole vector. Every packet sets one uniformly
// random bit of the flow's vector. When few zero bits remain — the count of
// remaining zeros is the *noise level* — the vector is *saturated*: the
// number of packets it absorbed is estimated online from the noise level,
// the vector is recycled (its bits cleared), and the estimate is handed to
// the caller. Mice flows rarely saturate and are therefore retained inside
// the sketch; only flows that keep growing emit estimates.
package rcc

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"instameasure/internal/flowhash"
	"instameasure/internal/prefetch"
)

// DecodeMethod selects how a noise level is converted to a packet-count
// estimate.
type DecodeMethod int

const (
	// DecodeCouponCollector estimates the expected number of uniform
	// throws needed to leave exactly z of v bins empty:
	// v·(H_v − H_z). This matches the stopping rule "saturate the first
	// time zeros reach the threshold" and is the default.
	DecodeCouponCollector DecodeMethod = iota + 1
	// DecodeLinearCounting uses the linear-counting MLE v·ln(v/z),
	// kept as an ablation of the decoding rule.
	DecodeLinearCounting
)

const wordBits = 64

// Config parameterizes a Counter.
type Config struct {
	// MemoryBytes is the size of the shared bit pool. It is rounded up to
	// a whole number of words; at least one word is allocated.
	MemoryBytes int
	// WordBits is the confinement word size — "32 or 64 bits depending on
	// processor" (Section III.D). 0 means 64. A 32-bit confinement halves
	// the span a virtual vector may occupy, raising collision noise
	// slightly but matching 32-bit switch CPUs.
	WordBits int
	// VectorBits is v, the virtual vector size per flow (2..WordBits).
	VectorBits int
	// NoiseMax is the saturation threshold: the vector saturates when at
	// most NoiseMax zero bits remain. 0 means derive the paper's default
	// (3 zero bits for an 8-bit vector, scaled as ⌈3v/8⌉, floor 1).
	NoiseMax int
	// NoiseMin is the lowest reportable noise level (observed noise below
	// it is clamped up). 0 means 1.
	NoiseMin int
	// Decode selects the estimation rule; 0 means DecodeCouponCollector.
	Decode DecodeMethod
	// Seed makes hashing and random bit selection deterministic.
	Seed uint64
}

// Validation errors.
var (
	ErrVectorBits = errors.New("rcc: VectorBits must be in [2, WordBits]")
	ErrWordBits   = errors.New("rcc: WordBits must be 32 or 64")
	ErrNoiseRange = errors.New("rcc: need 1 <= NoiseMin <= NoiseMax < VectorBits")
)

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.WordBits == 0 {
		cfg.WordBits = wordBits
	}
	if cfg.WordBits != 32 && cfg.WordBits != 64 {
		return cfg, fmt.Errorf("%w (got %d)", ErrWordBits, cfg.WordBits)
	}
	if cfg.VectorBits < 2 || cfg.VectorBits > cfg.WordBits {
		return cfg, fmt.Errorf("%w (got %d with %d-bit words)",
			ErrVectorBits, cfg.VectorBits, cfg.WordBits)
	}
	if cfg.MemoryBytes < 8 {
		cfg.MemoryBytes = 8
	}
	if cfg.NoiseMax == 0 {
		cfg.NoiseMax = (3*cfg.VectorBits + 7) / 8
		if cfg.NoiseMax < 1 {
			cfg.NoiseMax = 1
		}
	}
	if cfg.NoiseMin == 0 {
		cfg.NoiseMin = 1
	}
	if cfg.Decode == 0 {
		cfg.Decode = DecodeCouponCollector
	}
	if cfg.NoiseMin < 1 || cfg.NoiseMin > cfg.NoiseMax || cfg.NoiseMax >= cfg.VectorBits {
		return cfg, fmt.Errorf("%w (min=%d max=%d v=%d)",
			ErrNoiseRange, cfg.NoiseMin, cfg.NoiseMax, cfg.VectorBits)
	}
	return cfg, nil
}

// Location is a resolved virtual vector: the pool word holding it and the
// mask of its v bit positions inside that word. FlowRegulator resolves a
// Location once per packet and reuses it across both layers (the paper's
// hash-reuse design).
type Location struct {
	Word int
	Mask uint64
}

// A virtual vector is one of tableSize precomputed v-of-span masks, rotated
// within its span by further hash bits: tableSize × span ≥ 2¹⁵ distinct
// vectors per span for one table load, and rotation over every offset makes
// each span position exactly equally likely whatever the table holds.
const (
	tableBits = 10
	tableSize = 1 << tableBits
)

// Counter is one RCC instance over a private bit pool. It is not safe for
// concurrent use; the pipeline gives each worker its own Counter.
type Counter struct {
	cfg   Config
	words []uint64
	// nSpans counts the pool's confinement spans: virtual vectors live
	// inside one span of cfg.WordBits bits, so a 32-bit CPU still reads
	// the whole vector with one access.
	nSpans uint64
	// masks holds span-relative vectors (bits below cfg.WordBits only).
	// Read-only after New, so Siblings share it.
	masks  *[tableSize]uint64
	rng    *flowhash.Rand
	decode []float64

	encodes     uint64
	saturations uint64
}

// New builds a Counter from cfg.
func New(cfg Config) (*Counter, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := (full.MemoryBytes + 7) / 8
	return &Counter{
		cfg:    full,
		words:  make([]uint64, n),
		nSpans: uint64(n * (wordBits / full.WordBits)),
		masks:  vectorTable(full),
		rng:    flowhash.NewRand(full.Seed ^ 0xC0FFEE),
		decode: decodeTable(full),
	}, nil
}

// Sibling returns a Counter with c's geometry and vector table — so a
// Location resolved by either is valid for both — but its own zeroed pool
// and an independent bit-draw stream (distinct stream values give
// unrelated streams). FlowRegulator builds its higher-layer banks this way.
// EncodeLoc trusts popcount(loc.Mask) == VectorBits: a Location from a
// Counter of another geometry is not checked and misbehaves in selectBit.
func (c *Counter) Sibling(stream uint64) *Counter {
	s := *c
	s.words = make([]uint64, len(c.words))
	s.rng = flowhash.NewRand(c.cfg.Seed ^ 0xC0FFEE ^ flowhash.Mix64(stream))
	s.encodes, s.saturations = 0, 0
	return &s
}

// MustNew is New for statically-known-good configs; it panics on error and
// is intended for package setup in tests and benchmarks.
func MustNew(cfg Config) *Counter {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the counter's resolved configuration.
func (c *Counter) Config() Config { return c.cfg }

// MemoryBytes returns the bit pool size.
func (c *Counter) MemoryBytes() int { return len(c.words) * 8 }

// Words returns the number of pool words.
func (c *Counter) Words() int { return len(c.words) }

// Encodes returns the number of Encode calls processed.
func (c *Counter) Encodes() uint64 { return c.encodes }

// Saturations returns how many encodes triggered saturation. The ratio
// Saturations/Encodes is the paper's regulation rate (output ips / input pps).
func (c *Counter) Saturations() uint64 { return c.saturations }

// Locate resolves the virtual vector for flow hash h into loc. The vector
// is confined within one span (WordBits bits) of one pool word. One mix of
// h supplies everything: its high bits pick the span by multiply-high (no
// division, any pool size), its low bits pick a table mask, the next bits
// rotate the mask within the span. The span comes from the mix and not
// from h itself because the sharded pipeline routes flows by h's high bits;
// a shard's flows must still spread over its whole pool.
//
//im:hotpath
func (c *Counter) Locate(h uint64, loc *Location) {
	s := flowhash.Mix64(h ^ (c.cfg.Seed + 0x9E3779B97F4A7C15))
	span, _ := bits.Mul64(s, c.nSpans)
	m := c.masks[s&(tableSize-1)]
	rot := int(s >> tableBits) // the rotates reduce it modulo the span
	if c.cfg.WordBits == wordBits {
		loc.Word = int(span)
		loc.Mask = bits.RotateLeft64(m, rot)
		return
	}
	loc.Word = int(span >> 1)
	loc.Mask = uint64(bits.RotateLeft32(uint32(m), rot)) << (32 * (span & 1))
}

// Encode records one packet of the flow with hash h. It reports the noise
// level and whether this packet saturated (and recycled) the vector.
func (c *Counter) Encode(h uint64) (noise int, saturated bool) {
	var loc Location
	c.Locate(h, &loc)
	return c.EncodeLoc(&loc)
}

// PrefetchLoc hints the cache line holding loc's pool word. The batched
// regulator resolves a burst of Locations first, prefetches every word,
// then encodes — overlapping the pool's DRAM misses across the burst.
// Advisory only; see internal/prefetch.
//
//im:hotpath
func (c *Counter) PrefetchLoc(loc *Location) {
	prefetch.T0(unsafe.Pointer(&c.words[loc.Word]))
}

// EncodeLoc is Encode with a pre-resolved Location.
//
//im:hotpath
func (c *Counter) EncodeLoc(loc *Location) (noise int, saturated bool) {
	c.encodes++
	v := c.cfg.VectorBits
	w := &c.words[loc.Word]
	*w |= selectBit(loc.Mask, c.rng.Intn(v))

	zeros := v - bits.OnesCount64(*w&loc.Mask)
	if zeros > c.cfg.NoiseMax {
		return zeros, false
	}
	if zeros < c.cfg.NoiseMin {
		zeros = c.cfg.NoiseMin
	}
	*w &^= loc.Mask // recycle the vector
	c.saturations++
	return zeros, true
}

// Decode converts a saturation noise level to the estimated number of
// packets absorbed during that fill cycle.
func (c *Counter) Decode(noise int) float64 {
	if noise < 0 {
		noise = 0
	}
	if noise >= len(c.decode) {
		noise = len(c.decode) - 1
	}
	return c.decode[noise]
}

// EstimateResidual linear-counts the current (unsaturated) state of flow
// h's vector: the packets absorbed since the last recycle. Used when a
// measurement window closes to account for retained packets.
func (c *Counter) EstimateResidual(h uint64) float64 {
	var loc Location
	c.Locate(h, &loc)
	return c.EstimateResidualLoc(&loc)
}

// EstimateResidualLoc is EstimateResidual with a pre-resolved Location.
func (c *Counter) EstimateResidualLoc(loc *Location) float64 {
	w := c.words[loc.Word]
	n := c.cfg.VectorBits
	zeros := n - bits.OnesCount64(w&loc.Mask)
	if zeros == n {
		return 0
	}
	if zeros == 0 {
		zeros = 1 // saturated-but-unrecycled state; clamp like Encode does
	}
	v := float64(n)
	return v * math.Log(v/float64(zeros))
}

// RetentionCapacity reports the largest per-cycle estimate the counter can
// emit — the maximum number of packets one virtual vector retains before the
// flow must pass through (Fig. 8a's y-axis).
func (c *Counter) RetentionCapacity() float64 {
	return c.Decode(c.cfg.NoiseMin)
}

// Reset clears the bit pool and statistics.
func (c *Counter) Reset() {
	for i := range c.words {
		c.words[i] = 0
	}
	c.encodes = 0
	c.saturations = 0
}

// FillRatio reports the fraction of pool bits currently set — a congestion
// indicator for sizing experiments.
func (c *Counter) FillRatio() float64 {
	var ones int
	for _, w := range c.words {
		ones += bits.OnesCount64(w)
	}
	return float64(ones) / float64(len(c.words)*wordBits)
}

func decodeTable(cfg Config) []float64 {
	v := cfg.VectorBits
	t := make([]float64, v+1)
	switch cfg.Decode {
	case DecodeLinearCounting:
		fv := float64(v)
		for z := 1; z <= v; z++ {
			t[z] = fv * math.Log(fv/float64(z))
		}
		t[0] = fv*math.Log(fv) + fv // one past z=1, mirroring the CC tail
	default: // DecodeCouponCollector
		// t[z] = v·(H_v − H_z): expected throws to leave z of v bins empty.
		h := make([]float64, v+1)
		for k := 1; k <= v; k++ {
			h[k] = h[k-1] + 1/float64(k)
		}
		for z := 0; z <= v; z++ {
			t[z] = float64(v) * (h[v] - h[z])
		}
	}
	return t
}

// vectorTable draws the tableSize span-relative masks Locate picks from.
// Each takes its v positions one at a time, uniformly among the span
// positions still free, so every mask has exactly v distinct bits inside
// the span for any v up to the span size.
func vectorTable(cfg Config) *[tableSize]uint64 {
	rng := flowhash.NewRand(cfg.Seed ^ 0x7AB1E)
	span := ^uint64(0) >> (wordBits - cfg.WordBits)
	t := new([tableSize]uint64)
	for i := range t {
		for n := cfg.WordBits; n > cfg.WordBits-cfg.VectorBits; n-- {
			t[i] |= selectBit(span&^t[i], rng.Intn(n))
		}
	}
	return t
}

// selectBit returns the k-th (0-based) lowest set bit of x, as a one-bit
// mask; x must have more than k bits set. Branch-free broadword selection
// (Vigna, "Broadword implementation of rank/select queries"): prefix sums
// of the per-byte popcounts locate the byte holding rank k, then prefix
// sums of that byte's bits, spread one per lane, locate the bit.
//
//im:hotpath
func selectBit(x uint64, k int) uint64 {
	s := x - (x>>1)&0x5555555555555555
	s = s&0x3333333333333333 + (s>>2)&0x3333333333333333
	s = (s + s>>4) & 0x0F0F0F0F0F0F0F0F
	sums := s * l8 // lane i: popcount of bytes 0..i
	byteOff := lanesAtMost(sums, uint64(k)) * 8
	rank := uint64(k) - (sums<<8>>byteOff)&0xFF
	b := (x >> byteOff & 0xFF) * l8 & 0x8040201008040201 // bit i to lane i
	b = (b + 0x7F7F7F7F7F7F7F7F) >> 7 & l8               // as 0/1
	return 1 << (byteOff + lanesAtMost(b*l8, rank))
}

// The low and the high bit of every byte lane.
const l8, h8 = 0x0101010101010101, 0x8080808080808080

// lanesAtMost counts the byte lanes of sums holding a value ≤ k (all
// < 128): a lane's top bit survives the subtraction iff its value ≤ k. On
// prefix sums that is the index of the first lane exceeding k.
//
//im:hotpath
func lanesAtMost(sums, k uint64) uint {
	return uint(bits.OnesCount64(((k*l8 | h8) - sums) & h8))
}
