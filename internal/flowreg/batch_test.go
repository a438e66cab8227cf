package flowreg

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"instameasure/internal/flowhash"
	"instameasure/internal/rcc"
	"instameasure/internal/telemetry"
)

// burstPass is a passthrough of a whole run: the packet's index in the
// run and its estimate's factors.
type burstPass struct {
	I           int
	Unit, Count float64
}

// runBursts feeds hashes to r through ProcessBurst, split after every
// index in cuts (and at the end), and returns the run's passthroughs.
func runBursts(r *Regulator, hashes []uint64, cuts []int) []burstPass {
	var out []burstPass
	start := 0
	for _, end := range append(cuts, len(hashes)) {
		if end <= start || end > len(hashes) {
			continue
		}
		for _, p := range r.ProcessBurst(hashes[start:end]) {
			out = append(out, burstPass{I: start + int(p.I), Unit: p.Unit, Count: p.Count})
		}
		start = end
	}
	return out
}

// sameState fails the test unless a and b hold the same counters and the
// same residual for every flow of flows — the residual reads every
// layer's pool at the flow's vector.
func sameState(t *testing.T, a, b *Regulator, flows []uint64) {
	t.Helper()
	if a.Packets() != b.Packets() || a.L1Saturations() != b.L1Saturations() || a.Emissions() != b.Emissions() {
		t.Fatalf("counters diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.Packets(), a.L1Saturations(), a.Emissions(), b.Packets(), b.L1Saturations(), b.Emissions())
	}
	for _, h := range flows {
		if ra, rb := a.EstimateResidual(h), b.EstimateResidual(h); ra != rb {
			t.Fatalf("flow %016x: residual %v vs %v", h, ra, rb)
		}
	}
}

// TestProcessBatchMatchesScalar pins the burst contract: a run of ragged
// bursts — bursts of one among them — returns the passthroughs, in packet
// order and with identical estimates, that the same packets fed one at a
// time through Process do, and leaves every layer in the same state. This
// is the strong form: every counter consumes its own sequential draw
// stream, so any reordering of the deferred layers diverges at once. The
// table covers the chain depths and two vector sizes in the 64-bit word.
func TestProcessBatchMatchesScalar(t *testing.T) {
	for _, layers := range []int{2, 3, 4} {
		for _, v := range []int{8, 16} {
			t.Run(fmt.Sprintf("L%d/w64/v%d", layers, v), func(t *testing.T) {
				cfg := Config{Layer: rcc.Config{MemoryBytes: 1 << 10, VectorBits: v, Seed: 11}, Layers: layers}
				batched, scalar := MustNew(cfg), MustNew(cfg)
				rng := flowhash.NewRand(33)
				const total = 200_000
				flows := make([]uint64, 2_000)
				for i := range flows {
					flows[i] = flowhash.Mix64(uint64(i))
				}
				hashes, lens := make([]uint64, total), make([]int, total)
				for i := range hashes {
					f := rng.Intn(len(flows))
					if i%2 == 0 {
						f = rng.Intn(2) // two elephants reach the deepest layer
					}
					hashes[i], lens[i] = flows[f], 64+rng.Intn(1400)
				}
				var cuts []int
				for end := 0; end < total; {
					n := 256 - rng.Intn(3)
					if rng.Intn(8) == 0 {
						n = 1
					}
					end += n
					cuts = append(cuts, end)
				}
				got := runBursts(batched, hashes, cuts)
				var want []burstPass
				for i, h := range hashes {
					if em, ok := scalar.Process(h, lens[i]); ok {
						want = append(want, burstPass{I: i, Unit: em.Unit, Count: em.Count})
						if em.EstPkts != em.Unit*em.Count || em.EstBytes != em.EstPkts*float64(lens[i]) {
							t.Fatalf("packet %d: emission %+v is not Unit·Count and EstPkts·len(%d)", i, em, lens[i])
						}
					}
				}
				if !slices.Equal(got, want) {
					j := 0
					for j < len(got) && j < len(want) && got[j] == want[j] {
						j++
					}
					t.Fatalf("%d passthroughs in bursts, %d one at a time; they differ at the %d-th: %v vs %v",
						len(got), len(want), j, got[j:min(j+1, len(got))], want[j:min(j+1, len(want))])
				}
				sameState(t, batched, scalar, flows)
				if batched.Emissions() == 0 {
					t.Fatal("degenerate run: no emissions — equivalence never exercised the full chain")
				}
			})
		}
	}
}

// TestProcessBatchPerPacketResults: ProcessBatch reports each packet's
// passthrough at its own index, with the emission for its own length.
func TestProcessBatchPerPacketResults(t *testing.T) {
	batched, scalar := MustNew(testConfig(256, 5)), MustNew(testConfig(256, 5))
	const burst = 256
	hashes, lens := make([]uint64, burst), make([]int, burst)
	ems, oks := make([]Emission, burst), make([]bool, burst)
	passed := 0
	for round := 0; round < 200; round++ {
		for i := range hashes {
			hashes[i], lens[i] = flowhash.Mix64(uint64(i%7)), 64+i
			oks[i] = true // stale flags must be cleared
		}
		batched.ProcessBatch(hashes, lens, ems, oks)
		for i := range hashes {
			em, ok := scalar.Process(hashes[i], lens[i])
			if oks[i] != ok || ok && ems[i] != em {
				t.Fatalf("round %d packet %d: batch (%+v,%v) != scalar (%+v,%v)", round, i, ems[i], oks[i], em, ok)
			}
			if ok {
				passed++
			}
		}
	}
	if passed == 0 {
		t.Fatal("degenerate run: no passthroughs")
	}
}

// TestRegulatorGolden pins what 200 000 packets leave behind — packets,
// L1 saturations, emissions, and the sums of the emitted packet and byte
// estimates — across depths and geometries, at values recorded before the
// regulator ran its bursts as one L1 pass. A change to any draw stream, to
// the bit a draw picks or to the order a counter sees its encodes fails
// here by name. The last row saturates on every packet.
func TestRegulatorGolden(t *testing.T) {
	for _, g := range []struct {
		v, layers, memory          int
		packets, l1Sats, emissions uint64
		sumPkts, sumBytes          float64
	}{
		{8, 2, 4096, 200000, 25959, 2192, 110381.56263038216, 8.429737898068015e+07},
		{8, 4, 2048, 200000, 26656, 40, 100290.0967069482, 7.985849675532508e+07},
		{64, 2, 1024, 200000, 3175, 24, 92100.40437663742, 6.7049094386192e+07},
		{3, 3, 512, 200000, 200000, 200000, 199999.99999999997, 1.5251580099999997e+08},
	} {
		r := MustNew(Config{Layer: rcc.Config{MemoryBytes: g.memory, VectorBits: g.v, Seed: 2024}, Layers: g.layers})
		rng := flowhash.NewRand(77)
		var pkts, bytes float64
		for i := 0; i < 200_000; i++ {
			f := rng.Intn(20_000)
			if i%2 == 0 {
				f = rng.Intn(4)
			}
			if em, ok := r.Process(flowhash.Mix64(uint64(f)), 64+rng.Intn(1400)); ok {
				pkts += em.EstPkts
				bytes += em.EstBytes
			}
		}
		if r.Packets() != g.packets || r.L1Saturations() != g.l1Sats || r.Emissions() != g.emissions ||
			pkts != g.sumPkts || bytes != g.sumBytes {
			t.Errorf("v=%d L%d %dB: (%d, %d, %d, %v, %v), want (%d, %d, %d, %v, %v)",
				g.v, g.layers, g.memory, r.Packets(), r.L1Saturations(), r.Emissions(), pkts, bytes,
				g.packets, g.l1Sats, g.emissions, g.sumPkts, g.sumBytes)
		}
	}
}

// FuzzRegulatorBursts: any packet sequence, split into bursts anywhere,
// returns the passthroughs the unsplit burst returns and leaves the same
// state. data is read two bytes a packet: the flow (of 32) and, in the
// low bit, whether a burst ends after it; geometry picks the chain depth
// (its low two bits) and the vector size (bits 3–4); bit 2 is unread.
func FuzzRegulatorBursts(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 1, 1, 2, 0, 1, 1})
	f.Add(uint8(5), []byte{7, 1, 7, 1, 7, 1, 7, 1, 3, 0})
	f.Add(uint8(11), []byte{0, 0, 0, 0, 0, 0, 31, 1, 31, 0})
	f.Fuzz(func(t *testing.T, geometry uint8, data []byte) {
		cfg := Config{Layer: rcc.Config{
			MemoryBytes: 64,
			VectorBits:  []int{2, 3, 8, 17}[geometry>>3&3],
			Seed:        uint64(geometry),
		}, Layers: 2 + int(geometry&3)%3}
		var hashes []uint64
		var cuts []int
		for pass := 0; pass < 8 && len(hashes) < 1<<14; pass++ {
			for i := 0; i+1 < len(data); i += 2 {
				hashes = append(hashes, flowhash.Mix64(uint64(data[i]%32)))
				if data[i+1]&1 != 0 {
					cuts = append(cuts, len(hashes))
				}
			}
		}
		whole, split := MustNew(cfg), MustNew(cfg)
		want := runBursts(whole, hashes, nil)
		if got := runBursts(split, hashes, cuts); !slices.Equal(got, want) {
			t.Fatalf("split run passed %v, unsplit %v", got, want)
		}
		flows := make([]uint64, 32)
		for i := range flows {
			flows[i] = flowhash.Mix64(uint64(i))
		}
		sameState(t, split, whole, flows)
		for _, p := range want {
			if p.Unit <= 0 || p.Count <= 0 || math.IsInf(p.Unit*p.Count, 0) {
				t.Fatalf("passthrough %+v: estimate factors must be positive and finite", p)
			}
		}
	})
}

// TestProcessBatchZeroAllocSteadyState: after the scratch reaches its
// high-water size, the //im:hotpath roots ProcessBurst, ProcessBatch and
// Process must not allocate — at chain depths 2 and 3, with and without
// telemetry. 16 flows share a 256-byte pool, so every measured run has
// saturations that stop in a deeper layer and ones that pass through.
func TestProcessBatchZeroAllocSteadyState(t *testing.T) {
	const burst = 256
	hashes := make([]uint64, burst)
	lens := make([]int, burst)
	ems := make([]Emission, burst)
	oks := make([]bool, burst)
	for i := range hashes {
		hashes[i] = flowhash.Mix64(uint64(i % 16))
		lens[i] = 100
	}
	reg := telemetry.NewRegistry("t", 1)
	for layers := 2; layers <= 3; layers++ {
		tm := &Telemetry{
			LayerRecycles: make([]telemetry.CounterShard, layers),
			Emissions:     reg.Counter("emissions", "").Shard(0),
			NoiseLevels:   reg.Histogram("noise", "", 1).Shard(0), // noise past 1 lands in +Inf
		}
		for k := range tm.LayerRecycles {
			tm.LayerRecycles[k] = reg.Counter("recycles", "", "layer", strconv.Itoa(k)).Shard(0)
		}
		for _, tel := range []*Telemetry{nil, tm} {
			cfg := testConfig(256, 5)
			cfg.Layers = layers
			r := MustNew(cfg)
			r.SetTelemetry(tel)
			r.ProcessBatch(hashes, lens, ems, oks) // warm the scratch
			fewest, stopped := burst, burst
			allocs := testing.AllocsPerRun(100, func() {
				sats, passes := r.L1Saturations(), r.Emissions()
				for range 4 {
					r.ProcessBatch(hashes, lens, ems, oks)
					for _, h := range hashes {
						r.Process(h, 100)
					}
					r.ProcessBurst(hashes)
				}
				passes = r.Emissions() - passes
				fewest = min(fewest, int(passes))
				stopped = min(stopped, int(r.L1Saturations()-sats-passes))
			})
			if allocs != 0 {
				t.Errorf("layers %d, telemetry %v: steady-state bursts allocate %.2f objects per run, want 0", layers, tel != nil, allocs)
			}
			if fewest == 0 || stopped == 0 {
				t.Errorf("layers %d: a run had %d passthroughs and %d saturations stopped in a deeper layer; want both", layers, fewest, stopped)
			}
		}
	}
}
