package rcc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// pickVectors are the vector sizes the pick is held to: the smallest
// vectors, odd ones, half a word and a full word.
var pickVectors = []int{2, 3, 8, 17, 32, 64}

// TestPickMatchesSelectBit: for every table mask, every rotation and every
// draw, the position-table pick is the draw-th lowest bit of the rotated
// mask — what a scan of the mask selects. Rotation 0 wraps no bit;
// rotation 63 wraps all but the lowest.
func TestPickMatchesSelectBit(t *testing.T) {
	for _, v := range pickVectors {
		c := MustNew(Config{MemoryBytes: 64, VectorBits: v, NoiseMax: 1, Seed: uint64(v)})
		for row := range uint64(tableSize) {
			for rot := range uint(wordBits) {
				loc := c.location(0, row, rot)
				if bits.OnesCount64(loc.Mask) != v {
					t.Fatalf("v=%d row %d rot %d: mask %016x has %d bits", v, row, rot, loc.Mask, bits.OnesCount64(loc.Mask))
				}
				for k := range v {
					if got, want := c.pick(&loc, k), selectBit(loc.Mask, k); got != want {
						t.Fatalf("v=%d row %d rot %d k %d: pick %016x, selectBit %016x (mask %016x)",
							v, row, rot, k, got, want, loc.Mask)
					}
				}
			}
		}
	}
}

// TestEncodeBurstMatchesReference: a burst run leaves the pool, the draw
// stream and the statistics where Locate plus a selectBit encode, one
// packet at a time, leaves them, and lists exactly the packets that
// saturated, each with its noise and its Location as Locate resolves it.
func TestEncodeBurstMatchesReference(t *testing.T) {
	for _, v := range pickVectors {
		t.Run(fmt.Sprintf("w64/v%d", v), func(t *testing.T) {
			cfg := Config{MemoryBytes: 256, VectorBits: v, Seed: 5}
			burst, ref := MustNew(cfg), MustNew(cfg)
			rng := rand.New(rand.NewSource(int64(v)))
			hashes := make([]uint64, 50_000)
			for i := range hashes {
				hashes[i] = uint64(rng.Intn(300))*0x9E3779B97F4A7C15 + 1
			}
			var got []Saturation
			for start := 0; start < len(hashes); {
				end := min(start+1+rng.Intn(300), len(hashes))
				n := len(got)
				got = burst.EncodeBurst(hashes[start:end], got)
				for j := n; j < len(got); j++ {
					got[j].I += int32(start)
				}
				start = end
			}
			var want []Saturation
			for i, h := range hashes {
				var loc Location
				ref.Locate(h, &loc)
				if noise, sat := refEncode(ref, &loc); sat {
					want = append(want, Saturation{I: int32(i), Noise: int32(noise), Loc: loc})
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d saturations in bursts, %d by reference", len(got), len(want))
			}
			if !slices.Equal(burst.words, ref.words) || burst.rng != ref.rng ||
				burst.Encodes() != ref.Encodes() || burst.Saturations() != ref.Saturations() {
				t.Fatalf("state diverged: encodes %d/%d saturations %d/%d",
					burst.Encodes(), ref.Encodes(), burst.Saturations(), ref.Saturations())
			}
			if len(want) == 0 {
				t.Fatal("degenerate run: nothing saturated")
			}
		})
	}
}

// refEncode is EncodeLoc with the bit selected from the mask itself.
func refEncode(c *Counter, loc *Location) (noise int, saturated bool) {
	c.encodes++
	v := c.cfg.VectorBits
	w := &c.words[loc.Word]
	*w |= selectBit(loc.Mask, c.rng.Intn(v))
	zeros := v - bits.OnesCount64(*w&loc.Mask)
	if zeros > c.cfg.NoiseMax {
		return zeros, false
	}
	*w &^= loc.Mask
	c.saturations++
	return max(zeros, 1), true
}
