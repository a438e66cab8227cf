package memmodel

import (
	"math"
	"os"
	"testing"

	"instameasure/internal/core"
	"instameasure/internal/trace"
)

func TestDefaultCacheBand(t *testing.T) {
	m := Default()
	// A cache hit is SRAM-tier work: more than one raw SRAM access (tag
	// probe + counter line), far less than the full sketch pipeline.
	if m.HotCacheHitNs <= m.SRAMAccessNs {
		t.Error("a cache hit cannot be cheaper than a single SRAM access")
	}
	if m.HotCacheHitNs >= m.UncachedPacketNs(0) {
		t.Error("a cache hit must undercut the sketch pipeline it bypasses")
	}
	sp := m.CacheSpeedup(0.6, 0.01)
	if sp < 1.1 || sp > 3.0 {
		t.Errorf("modeled cache speedup %.2fx at 60%% hits outside [1.1, 3.0]", sp)
	}
}

func TestCachedPacketNsShape(t *testing.T) {
	m := Default()
	const ratio = 0.01
	// Monotone: more hits, cheaper packets.
	prev := math.Inf(1)
	for _, hr := range []float64{0, 0.25, 0.5, 0.75, 1} {
		c := m.CachedPacketNs(hr, ratio)
		if c >= prev {
			t.Errorf("CachedPacketNs not decreasing at hit rate %.2f: %.3f >= %.3f", hr, c, prev)
		}
		prev = c
	}
	// Zero hits pays the uncached cost plus the probe that missed.
	want := m.HotCacheHitNs + m.UncachedPacketNs(ratio)
	if got := m.CachedPacketNs(0, ratio); math.Abs(got-want) > 1e-9 {
		t.Errorf("all-miss cost %.3f, want uncached + probe = %.3f", got, want)
	}
	// All hits pay exactly the probe.
	if got := m.CachedPacketNs(1, ratio); math.Abs(got-m.HotCacheHitNs) > 1e-9 {
		t.Errorf("all-hit cost %.3f, want %.3f", got, m.HotCacheHitNs)
	}
}

func TestCacheSpeedupDisabled(t *testing.T) {
	m := Default()
	m.HotCacheHitNs = 0
	if m.CacheSpeedup(0.9, 0.01) != 1 {
		t.Error("zero HotCacheHitNs must disable the cache model")
	}
	if m.CachedPacketNs(0.9, 0.01) != m.UncachedPacketNs(0.01) {
		t.Error("disabled cache model must fall back to the uncached cost")
	}
}

func TestSketchAccessesZeroDefaults(t *testing.T) {
	m := Default()
	m.SketchAccessesPerPacket = 0
	if got := m.UncachedPacketNs(0); math.Abs(got-m.SRAMAccessNs) > 1e-9 {
		t.Errorf("zero SketchAccessesPerPacket must default to 1 access, got %.3f ns", got)
	}
}

// TestHotCacheModelCrossCheck holds the cache model against the machine:
// the modeled CacheSpeedup at the *measured* hit rate and regulation ratio
// must agree with the measured cached-vs-uncached ProcessBatch ns/op ratio
// on a skewed trace, within the same 2× band (either way) the prefetch
// cross-check uses. Whether the cache wins on speed at all is data the log
// line reports, not an invariant: with the regulator near the cost of a
// cache probe it may not. Benchmark-based, so gated behind
// INSTAMEASURE_BENCH_GUARD=1.
func TestHotCacheModelCrossCheck(t *testing.T) {
	if os.Getenv("INSTAMEASURE_BENCH_GUARD") == "" {
		t.Skip("set INSTAMEASURE_BENCH_GUARD=1 to run benchmark-based guards")
	}

	tr, err := trace.GenerateZipf(trace.ZipfConfig{
		Flows:        50_000,
		TotalPackets: 1_000_000,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}

	mkCfg := func(cacheEntries int) core.Config {
		return core.Config{
			WSAFEntries:     1 << 17,
			HotCacheEntries: cacheEntries,
			Seed:            97,
		}
	}

	// One non-benchmark replay per variant reads the operating point the
	// model needs: hit rate over all packets, regulation ratio on the
	// uncached path.
	replay := func(cacheEntries int) *core.Engine {
		eng, err := core.New(mkCfg(cacheEntries))
		if err != nil {
			t.Fatal(err)
		}
		const burst = 256
		for off := 0; off < len(tr.Packets); off += burst {
			end := off + burst
			if end > len(tr.Packets) {
				end = len(tr.Packets)
			}
			eng.ProcessBatch(tr.Packets[off:end])
		}
		return eng
	}
	plain := replay(0)
	ratio := float64(plain.Regulator().Emissions()) / float64(plain.Packets())
	cachedEng := replay(4096)
	hitRate := float64(cachedEng.HotCache().Stats().Hits) / float64(cachedEng.Packets())
	if hitRate <= 0.1 {
		t.Fatalf("hit rate %.3f too low for a meaningful cross-check", hitRate)
	}

	bench := func(cacheEntries int) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			eng, err := core.New(mkCfg(cacheEntries))
			if err != nil {
				b.Fatal(err)
			}
			const burst = 256
			n := len(tr.Packets)
			b.ResetTimer()
			for done := 0; done < b.N; {
				off := done % n
				end := off + burst
				if end > n {
					end = n
				}
				if rem := b.N - done; end-off > rem {
					end = off + rem
				}
				eng.ProcessBatch(tr.Packets[off:end])
				done += end - off
			}
		})
	}
	uncached := bench(0)
	cached := bench(4096)

	measured := float64(uncached.NsPerOp()) / float64(cached.NsPerOp())
	modeled := Default().CacheSpeedup(hitRate, ratio)
	t.Logf("uncached %d ns/op, cached %d ns/op: measured %.2fx, modeled %.2fx (hitRate %.3f, ratio %.4f)",
		uncached.NsPerOp(), cached.NsPerOp(), measured, modeled, hitRate, ratio)
	if modeled > measured*2 || modeled < measured/2 {
		t.Errorf("modeled speedup %.2fx disagrees with measured %.2fx by more than 2x", modeled, measured)
	}
}
