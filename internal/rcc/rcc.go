// Package rcc implements the Recyclable Counter with Confinement (RCC) of
// Nyang and Shin (IEEE/ACM ToN 2016), the sketch primitive InstaMeasure's
// FlowRegulator is built from.
//
// Each flow owns a small *virtual vector* of VectorBits bit positions, all
// confined within a single 64-bit word of a shared bit pool so that one
// memory access serves the whole vector. Every packet sets one uniformly
// random bit of the flow's vector. When few zero bits remain — the count of
// remaining zeros is the *noise level* — the vector is *saturated*: the
// number of packets it absorbed is estimated online from the noise level
// by the coupon-collector expectation (Decode), the vector is recycled
// (its bits cleared), and the estimate is handed to the caller. Mice flows
// rarely saturate and are therefore retained inside the sketch; only flows
// that keep growing emit estimates.
package rcc

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"instameasure/internal/flowhash"
)

// wordBits is the confinement word: a virtual vector lies inside one
// uint64 of the pool, so one memory access serves it (Section III.D).
const wordBits = 64

// Config parameterizes a Counter.
type Config struct {
	// MemoryBytes is the size of the shared bit pool. It is rounded up to
	// a whole number of words; at least one word is allocated.
	MemoryBytes int
	// VectorBits is v, the virtual vector size per flow (2..64).
	VectorBits int
	// NoiseMax is the saturation threshold: the vector saturates when at
	// most NoiseMax zero bits remain. 0 means derive the paper's default
	// (3 zero bits for an 8-bit vector, scaled as ⌈3v/8⌉, floor 1). A
	// saturation reports its noise level in [1, NoiseMax]: a vector other
	// flows' bits filled completely reports 1.
	NoiseMax int
	// Seed makes hashing and random bit selection deterministic.
	Seed uint64
}

// Validation errors.
var (
	ErrVectorBits = errors.New("rcc: VectorBits must be in [2, 64]")
	ErrNoiseRange = errors.New("rcc: need 1 <= NoiseMax < VectorBits")
)

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.VectorBits < 2 || cfg.VectorBits > wordBits {
		return cfg, fmt.Errorf("%w (got %d)", ErrVectorBits, cfg.VectorBits)
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
	if cfg.NoiseMax < 1 || cfg.NoiseMax >= cfg.VectorBits {
		return cfg, fmt.Errorf("%w (max=%d v=%d)", ErrNoiseRange, cfg.NoiseMax, cfg.VectorBits)
	}
	return cfg, nil
}

// Location is a resolved virtual vector: the pool word holding it, the mask
// of its v bit positions inside that word, and where pick finds its bits in
// the position table. FlowRegulator resolves a Location once per packet and
// reuses it across every layer (the paper's hash-reuse design). 24 bytes.
type Location struct {
	Word int
	Mask uint64
	row  uint16 // row·v: the row's first entry in pos (< 2¹⁶ for v ≤ 64)
	off  uint8  // v − (mask bits the rotation carries past the word's top)
	rot  uint8  // rotation within the word
}

// Saturation is a packet of a burst that saturated its vector: its index in
// the burst, its noise level and its Location.
type Saturation struct {
	I, Noise int32
	Loc      Location
}

// A virtual vector is one of tableSize precomputed v-of-64 masks, rotated
// within its word by further hash bits: tableSize × 64 = 2¹⁶ distinct
// vectors per word for one table load, and rotation over every offset makes
// each bit position exactly equally likely whatever the table holds.
const (
	tableBits = 10
	tableSize = 1 << tableBits
)

// Counter is one RCC instance over a private bit pool. It is not safe for
// concurrent use; the pipeline gives each worker its own Counter.
type Counter struct {
	cfg   Config
	words []uint64
	geom  geometry
	// masks holds the unrotated vectors; pos lists each mask's bit
	// positions in ascending order, v a row.
	// Read-only after New, so Siblings share them.
	masks  *[tableSize]uint64
	pos    []uint8
	rng    flowhash.Rand
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
	masks, pos := vectorTable(full)
	return &Counter{
		cfg:    full,
		words:  make([]uint64, n),
		geom:   geometry{full.Seed + 0x9E3779B97F4A7C15, uint64(n)},
		masks:  masks,
		pos:    pos,
		rng:    *flowhash.NewRand(full.Seed ^ 0xC0FFEE),
		decode: decodeTable(full.VectorBits),
	}, nil
}

// Sibling returns a Counter with c's geometry and vector table — so a
// Location resolved by either is valid for both — but its own zeroed pool
// and an independent bit-draw stream (distinct stream values give
// unrelated streams). FlowRegulator builds its higher-layer banks this way.
// EncodeLoc trusts a Location to come from a Counter of the same geometry.
func (c *Counter) Sibling(stream uint64) *Counter {
	s := *c
	s.words = make([]uint64, len(c.words))
	s.rng = *flowhash.NewRand(c.cfg.Seed ^ 0xC0FFEE ^ flowhash.Mix64(stream))
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

// Encodes returns the number of Encode calls processed.
func (c *Counter) Encodes() uint64 { return c.encodes }

// Saturations returns how many encodes triggered saturation. The ratio
// Saturations/Encodes is the paper's regulation rate (output ips / input pps).
func (c *Counter) Saturations() uint64 { return c.saturations }

// Locate resolves the virtual vector for flow hash h into loc. The vector
// is confined within one pool word. One mix of h supplies everything: its
// high bits pick the word by multiply-high (no division, any pool size),
// its low bits pick a table mask, the next bits rotate the mask within the
// word. The word comes from the mix and not from h itself because the
// sharded pipeline routes flows by h's high bits; a shard's flows must
// still spread over its whole pool.
//
//im:hotpath
func (c *Counter) Locate(h uint64, loc *Location) {
	*loc = c.location(c.geom.vector(h))
}

// location is the Location of table row row rotated by rot in pool word
// word.
func (c *Counter) location(word int, row uint64, rot uint) Location {
	v := c.cfg.VectorBits
	r, wrapped := rotate(c.masks[row], rot)
	return Location{Word: word, Mask: r, row: uint16(int(row) * v),
		off: uint8(v - wrapped), rot: uint8(rot)}
}

// geometry is what locating a vector reads: the flow hash's mixing key and
// the pool's word count.
type geometry struct {
	key, nWords uint64
}

// vector is Locate's arithmetic: the pool word, the table row and the
// rotation of flow hash h's vector.
func (g geometry) vector(h uint64) (word int, row uint64, rot uint) {
	s := flowhash.Mix64(h ^ g.key)
	w, _ := bits.Mul64(s, g.nWords)
	return int(w), s & (tableSize - 1), uint(s>>tableBits) & (wordBits - 1)
}

// rotate rotates mask m left by rot and counts the bits it carried past
// the word's top: they sit below bit rot.
func rotate(m uint64, rot uint) (r uint64, wrapped int) {
	r = bits.RotateLeft64(m, int(rot))
	return r, bits.OnesCount64(r & (1<<(rot&63) - 1))
}

// pick returns selectBit(loc.Mask, k), the k-th lowest bit of loc's
// vector, from the position table: the rotation moves the row's wrapped
// last entries below its first, and each position up by rot in the word.
func (c *Counter) pick(loc *Location, k int) uint64 {
	p := uint(c.pos[int(loc.row)+reduce(k+int(loc.off), c.cfg.VectorBits)])
	return 1 << ((p + uint(loc.rot)) & (wordBits - 1))
}

// reduce is j mod v for j in [0, 2v), without a branch: either case is
// about as likely, and a mispredicted branch costs more than the pick.
func reduce(j, v int) int {
	return j - v&((v-1-j)>>63)
}

// Encode records one packet of the flow with hash h. It reports the noise
// level and whether this packet saturated (and recycled) the vector.
func (c *Counter) Encode(h uint64) (noise int, saturated bool) {
	var loc Location
	c.Locate(h, &loc)
	return c.EncodeLoc(&loc)
}

// EncodeLoc is Encode with a pre-resolved Location.
//
//im:hotpath
func (c *Counter) EncodeLoc(loc *Location) (noise int, saturated bool) {
	c.encodes++
	v := c.cfg.VectorBits
	w := &c.words[loc.Word]
	*w |= c.pick(loc, c.rng.Intn(v))

	zeros := v - bits.OnesCount64(*w&loc.Mask)
	if zeros > c.cfg.NoiseMax {
		return zeros, false
	}
	*w &^= loc.Mask // recycle the vector
	c.saturations++
	return max(zeros, 1), true
}

// EncodeBurst is Encode over every hash of hashes, in order, with the draw
// stream, tables and geometry in locals; it appends the packets that
// saturated to sats and returns it. Only a saturation writes a Location.
//
//im:hotpath
func (c *Counter) EncodeBurst(hashes []uint64, sats []Saturation) []Saturation {
	words, masks, pos, v, noiseMax := c.words, c.masks, c.pos, c.cfg.VectorBits, c.cfg.NoiseMax
	g, rng, listed := c.geom, c.rng, len(sats)
	for i, h := range hashes {
		word, row, rot := g.vector(h)
		mask, wrapped := rotate(masks[row], rot)
		p := uint(pos[int(row)*v+reduce(rng.Intn(v)+v-wrapped, v)]) // pick, in locals
		w := words[word] | 1<<((p+rot)&(wordBits-1))
		zeros := v - bits.OnesCount64(w&mask)
		if zeros > noiseMax {
			words[word] = w
			continue
		}
		words[word] = w &^ mask // recycle the vector
		sats = append(sats, Saturation{I: int32(i), Noise: int32(max(zeros, 1)), Loc: c.location(word, row, rot)})
	}
	c.rng = rng
	c.encodes += uint64(len(hashes))
	c.saturations += uint64(len(sats) - listed)
	return sats
}

// Decode converts a saturation noise level in [0, VectorBits] to the
// estimated number of packets absorbed during that fill cycle: the
// coupon-collector expectation v·(H_v − H_z) of uniform throws that leave
// exactly z of v bins empty, which matches the stopping rule "saturate the
// first time zeros reach the threshold". Every caller passes a level some
// saturation reported, in [1, NoiseMax].
func (c *Counter) Decode(noise int) float64 {
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
	return c.Decode(1)
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

// decodeTable is Decode's table: t[z] = v·(H_v − H_z).
func decodeTable(v int) []float64 {
	h := make([]float64, v+1)
	for k := 1; k <= v; k++ {
		h[k] = h[k-1] + 1/float64(k)
	}
	t := make([]float64, v+1)
	for z := range t {
		t[z] = float64(v) * (h[v] - h[z])
	}
	return t
}

// vectorTable draws the tableSize masks Locate picks from. Each takes its
// v positions one at a time, uniformly among the word's positions still
// free, so every mask has exactly v distinct bits for any v up to 64. pos
// lists each mask's positions in ascending order, v a row.
func vectorTable(cfg Config) (t *[tableSize]uint64, pos []uint8) {
	rng := flowhash.NewRand(cfg.Seed ^ 0x7AB1E)
	t, pos = new([tableSize]uint64), make([]uint8, 0, tableSize*cfg.VectorBits)
	for i := range t {
		for n := wordBits; n > wordBits-cfg.VectorBits; n-- {
			t[i] |= selectBit(^t[i], rng.Intn(n))
		}
		for m := t[i]; m != 0; m &= m - 1 {
			pos = append(pos, uint8(bits.TrailingZeros64(m)))
		}
	}
	return t, pos
}

// selectBit returns the k-th (0-based) lowest set bit of x, as a one-bit
// mask; x must have more than k bits set. It clears the k lowest set bits
// and isolates the next. It only draws the vector table at construction;
// packets' bits are picked from the position table.
func selectBit(x uint64, k int) uint64 {
	for ; k > 0; k-- {
		x &= x - 1
	}
	return x & -x
}
