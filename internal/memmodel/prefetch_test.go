package memmodel

import (
	"os"
	"testing"

	"instameasure/internal/packet"
	"instameasure/internal/wsaf"
)

func TestDefaultPrefetchBand(t *testing.T) {
	m := Default()
	if m.DRAMPrefetchedNs >= m.DRAMAccessNs {
		t.Error("prefetched DRAM access must be cheaper than a serialized one")
	}
	// The overlapped cost cannot beat SRAM: prefetch hides latency, it
	// does not change the memory technology.
	if m.DRAMPrefetchedNs <= m.SRAMAccessNs {
		t.Error("prefetched DRAM access cannot be as cheap as SRAM")
	}
	sp := m.PrefetchSpeedup()
	// The batch acceptance floor is 1.2×; achieved overlap on commodity
	// cores stays well under the theoretical 10–16× line-fill bound.
	if sp < 1.2 || sp > 3.0 {
		t.Errorf("modeled prefetch speedup %.2f outside [1.2, 3.0]", sp)
	}
}

func TestPrefetchSpeedupDisabled(t *testing.T) {
	m := Default()
	m.DRAMPrefetchedNs = 0
	if m.PrefetchSpeedup() != 1 {
		t.Error("zero DRAMPrefetchedNs must disable the prefetch model")
	}
}

// TestPrefetchModelCrossCheck holds the model against the machine: the
// measured scalar-vs-batched WSAF accumulate delta (the same loop pair as
// BenchmarkWSAFAccumulate / BenchmarkWSAFAccumulateBatch) must clear the
// 1.2× acceptance floor, and the modeled PrefetchSpeedup must agree with
// the measurement within a factor-of-noise band. Benchmark-based, so
// gated behind INSTAMEASURE_BENCH_GUARD=1 like the other bench guards.
func TestPrefetchModelCrossCheck(t *testing.T) {
	if os.Getenv("INSTAMEASURE_BENCH_GUARD") == "" {
		t.Skip("set INSTAMEASURE_BENCH_GUARD=1 to run benchmark-based guards")
	}

	const entries = 1 << 18
	const nkeys = 1 << 17
	keys := make([]packet.FlowKey, nkeys)
	hashes := make([]uint64, nkeys)
	rng := uint64(0x9E3779B97F4A7C15)
	for i := range keys {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		keys[i] = packet.V4Key(uint32(z), uint32(z>>32), 443, uint16(z>>16), packet.ProtoUDP)
		hashes[i] = keys[i].Hash64(0)
	}

	scalar := testing.Benchmark(func(b *testing.B) {
		tab := wsaf.MustNew(wsaf.Config{Entries: entries})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % nkeys
			tab.AccumulateHashed(hashes[j], keys[j], 50, 25_000, int64(i))
		}
	})
	// The engine's two passes per burst: prefetch every op's probe slot,
	// then accumulate each.
	batch := testing.Benchmark(func(b *testing.B) {
		tab := wsaf.MustNew(wsaf.Config{Entries: entries})
		const burst = 256
		b.ResetTimer()
		for i := 0; i < b.N; i += burst {
			start := i % (nkeys - burst)
			end := start + min(burst, b.N-i)
			for j := start; j < end; j++ {
				tab.PrefetchHashed(hashes[j])
			}
			for j := start; j < end; j++ {
				tab.AccumulateHashed(hashes[j], keys[j], 50, 25_000, int64(j))
			}
		}
	})

	measured := float64(scalar.NsPerOp()) / float64(batch.NsPerOp())
	modeled := Default().PrefetchSpeedup()
	t.Logf("scalar %d ns/op, batch %d ns/op: measured speedup %.2fx, modeled %.2fx",
		scalar.NsPerOp(), batch.NsPerOp(), measured, modeled)
	if measured < 1.2 {
		t.Errorf("measured prefetch speedup %.2fx below the 1.2x acceptance floor", measured)
	}
	// Coarse model, coarse band: modeled and measured must agree within
	// 2× either way, or the model is telling the wrong story.
	if modeled > measured*2 || modeled < measured/2 {
		t.Errorf("modeled speedup %.2fx disagrees with measured %.2fx by more than 2x", modeled, measured)
	}
}
