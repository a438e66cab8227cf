package core

import (
	"strings"
	"testing"

	"instameasure/internal/packet"
	"instameasure/internal/trace"
)

func batchTrace(t *testing.T, flows, packets int, seed uint64) *trace.Trace {
	t.Helper()
	tr, err := trace.GenerateZipf(trace.ZipfConfig{
		Flows:        flows,
		TotalPackets: packets,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestBatchScalarEquivalence is the batch-path determinism contract: a
// seeded trace through ProcessBatch must leave byte-identical sketch and
// table state, estimates, and telemetry counters versus the same trace
// through Process one packet at a time. Only the latency histogram may
// differ (batch observes once per burst, scalar samples 1-in-1024).
func TestBatchScalarEquivalence(t *testing.T) {
	tr := batchTrace(t, 2000, 120_000, 11)
	cfg := Config{SketchMemoryBytes: 8 << 10, WSAFEntries: 1 << 14, Seed: 5}

	scalar := testEngine(t, cfg)
	var scalarPasses []PassEvent
	scalar.OnPass(func(ev PassEvent) { scalarPasses = append(scalarPasses, ev) })
	for i := range tr.Packets {
		scalar.Process(tr.Packets[i])
	}

	batched := testEngine(t, cfg)
	var batchPasses []PassEvent
	batched.OnPass(func(ev PassEvent) { batchPasses = append(batchPasses, ev) })
	for i := 0; i < len(tr.Packets); {
		// Vary the burst size so batch boundaries provably don't matter.
		burst := []int{1, 7, 64, 256, 1000}[i%5]
		end := i + burst
		if end > len(tr.Packets) {
			end = len(tr.Packets)
		}
		batched.ProcessBatch(tr.Packets[i:end])
		i = end
	}

	if scalar.Packets() != batched.Packets() || scalar.Bytes() != batched.Bytes() {
		t.Fatalf("totals differ: scalar %d/%d, batch %d/%d",
			scalar.Packets(), scalar.Bytes(), batched.Packets(), batched.Bytes())
	}
	if len(scalarPasses) != len(batchPasses) {
		t.Fatalf("pass events: scalar %d, batch %d", len(scalarPasses), len(batchPasses))
	}
	for i := range scalarPasses {
		if scalarPasses[i] != batchPasses[i] {
			t.Fatalf("pass event %d differs:\nscalar %+v\nbatch  %+v", i, scalarPasses[i], batchPasses[i])
		}
	}

	// WSAF snapshots must be byte-identical (same entries in the same
	// order — Snapshot walks the entries in insertion order).
	sa, sb := scalar.Snapshot(), batched.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("snapshot sizes: scalar %d, batch %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("snapshot entry %d differs:\nscalar %+v\nbatch  %+v", i, sa[i], sb[i])
		}
	}

	// Estimates for every measured flow must agree exactly.
	for _, e := range sa {
		p1, b1 := scalar.Estimate(e.Key)
		p2, b2 := batched.Estimate(e.Key)
		if p1 != p2 || b1 != b2 {
			t.Fatalf("estimate for %v differs: scalar %v/%v, batch %v/%v", e.Key, p1, b1, p2, b2)
		}
	}
	if scalar.DistinctFlows() != batched.DistinctFlows() {
		t.Fatalf("cardinality differs: %v vs %v", scalar.DistinctFlows(), batched.DistinctFlows())
	}

	// Telemetry counters (everything except the latency histogram series).
	scalar.FlushTelemetry()
	batched.FlushTelemetry()
	want := map[string]float64{}
	scalar.Telemetry().Each(func(series string, v float64) {
		if !strings.Contains(series, "process_latency_ns") {
			want[series] = v
		}
	})
	batched.Telemetry().Each(func(series string, v float64) {
		if strings.Contains(series, "process_latency_ns") {
			return
		}
		if got, ok := want[series]; !ok || got != v {
			t.Errorf("series %s: scalar %v, batch %v", series, got, v)
		}
	})

	// With the hot cache on, promotions land at the next burst, so only a
	// burst of one is scalar order: it must match Process bit for bit —
	// table, pass events (the cache's crossing events included) and cache
	// counters.
	t.Run("cached", func(t *testing.T) {
		cfg := cfg
		cfg.HotCacheEntries = 64
		run := func(burstOfOne bool) (*Engine, []PassEvent) {
			e := testEngine(t, cfg)
			var evs []PassEvent
			e.OnPass(func(ev PassEvent) { evs = append(evs, ev) })
			e.SetDetectThresholds(500, 500*600)
			for i := range tr.Packets {
				if burstOfOne {
					e.ProcessBatch(tr.Packets[i : i+1])
				} else {
					e.Process(tr.Packets[i])
				}
			}
			return e, evs
		}
		scalar, scalarPasses := run(false)
		batched, batchPasses := run(true)

		if got, want := batched.HotCache().Stats(), scalar.HotCache().Stats(); got != want {
			t.Fatalf("cache stats: scalar %+v, burst of one %+v", want, got)
		}
		if len(scalarPasses) != len(batchPasses) {
			t.Fatalf("pass events: scalar %d, burst of one %d", len(scalarPasses), len(batchPasses))
		}
		cached := 0
		for i := range scalarPasses {
			if scalarPasses[i] != batchPasses[i] {
				t.Fatalf("pass event %d differs:\nscalar      %+v\nburst of one %+v", i, scalarPasses[i], batchPasses[i])
			}
			if scalarPasses[i].Cached {
				cached++
			}
		}
		if cached == 0 || scalar.HotCache().Stats().Hits == 0 {
			t.Fatalf("degenerate cached leg: %d crossing events, %d hits", cached, scalar.HotCache().Stats().Hits)
		}
		sa, sb := scalar.Snapshot(), batched.Snapshot()
		if len(sa) != len(sb) {
			t.Fatalf("snapshot sizes: scalar %d, burst of one %d", len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("snapshot entry %d differs:\nscalar       %+v\nburst of one %+v", i, sa[i], sb[i])
			}
		}
	})
}

// TestSingleHashPerPacket pins the tentpole invariant: each packet's flow
// key is hashed exactly once end-to-end — by Process and by ProcessBatch —
// even with the onPass consumer armed (the path that used to re-probe via
// Lookup) and with the hot cache probing, admitting and demoting on the
// same hash.
func TestSingleHashPerPacket(t *testing.T) {
	tr := batchTrace(t, 500, 30_000, 3)
	defer packet.SetHashCounting(false)
	for _, cache := range []int{0, 64} {
		cfg := Config{SketchMemoryBytes: 8 << 10, WSAFEntries: 1 << 12, HotCacheEntries: cache, Seed: 2}

		eng := testEngine(t, cfg)
		eng.OnPass(func(PassEvent) {})
		eng.SetDetectThresholds(100, 0)
		packet.SetHashCounting(true)
		for i := range tr.Packets {
			eng.Process(tr.Packets[i])
		}
		if got := packet.HashCount(); got != uint64(len(tr.Packets)) {
			t.Fatalf("cache=%d scalar path: %d Hash64 calls for %d packets, want exactly one per packet", cache, got, len(tr.Packets))
		}

		eng2 := testEngine(t, cfg)
		eng2.OnPass(func(PassEvent) {})
		eng2.SetDetectThresholds(100, 0)
		packet.SetHashCounting(true)
		for i := 0; i < len(tr.Packets); i += 256 {
			eng2.ProcessBatch(tr.Packets[i:min(i+256, len(tr.Packets))])
		}
		if got := packet.HashCount(); got != uint64(len(tr.Packets)) {
			t.Fatalf("cache=%d batch path: %d Hash64 calls for %d packets, want exactly one per packet", cache, got, len(tr.Packets))
		}
		if cache > 0 && (eng.HotCache().Stats().Hits == 0 || eng2.HotCache().Stats().Demotions == 0) {
			t.Fatalf("cache=%d: degenerate run, stats %+v / %+v", cache, eng.HotCache().Stats(), eng2.HotCache().Stats())
		}
	}
}

// TestProcessBatchZeroAllocs: the //im:hotpath roots Process,
// ProcessBatch, ProcessHashed and admit allocate nothing once the burst
// scratch is grown — with and without the hot cache and an OnPass
// callback. Each measured run sends 1024 packets through each entry point,
// so each crosses a latency sample (the flight span) and the counter
// publication; with the 16-entry cache every run also demotes incumbents
// that took hits and folds their deltas back into the table: at Zipf(0.5)
// no few flows own the cache, so its probabilistic admission keeps
// replacing incumbents that took hits.
func TestProcessBatchZeroAllocs(t *testing.T) {
	tr, err := trace.GenerateZipf(trace.ZipfConfig{Flows: 1000, TotalPackets: 60_000, Skew: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const burst, perRun = 256, 1024
	for _, entries := range []int{0, 16} {
		for _, withPass := range []bool{false, true} {
			eng := testEngine(t, Config{SketchMemoryBytes: 1 << 10, WSAFEntries: 1 << 14, HotCacheEntries: entries, Seed: 1})
			passes := 0
			if withPass {
				eng.OnPass(func(PassEvent) { passes++ })
			}
			// Grow the scratch and fill the cache.
			for i := 0; i < 8192; i += burst {
				eng.ProcessBatch(tr.Packets[i : i+burst])
			}
			recs := make([]Hashed, burst)
			next := 8192
			window := func() []packet.Packet {
				if next+burst > len(tr.Packets) {
					next = 0
				}
				next += burst
				return tr.Packets[next-burst : next]
			}
			latency := eng.Telemetry().Histogram("process_latency_ns", "", 24)
			spans := latency.Count()
			// fewestFolded is the fewest demoted packets one run folded
			// back into the table.
			fewestFolded := uint64(1 << 62)
			allocs := testing.AllocsPerRun(20, func() {
				var folded uint64
				if entries > 0 {
					folded = eng.cache.Stats().DemotedPkts
				}
				eng.ProcessHashed(nil, nil)
				for range perRun / burst {
					eng.ProcessBatch(window())
				}
				for range perRun / burst {
					for _, p := range window() {
						eng.Process(p)
					}
				}
				for range perRun / burst {
					b := window()
					for i := range b {
						recs[i] = Hashed{H: b[i].Key.Hash64(eng.cfg.HashSeed), Len: b[i].Len, I: uint32(i)}
					}
					eng.ProcessHashed(b, recs)
				}
				if entries > 0 {
					fewestFolded = min(fewestFolded, eng.cache.Stats().DemotedPkts-folded)
				}
			})
			if allocs != 0 {
				t.Errorf("cache=%d onPass=%v: %.2f allocations per %d packets, want 0", entries, withPass, allocs, 3*perRun)
			}
			if got := latency.Count() - spans; got < 3*21 {
				t.Errorf("cache=%d: %d latency samples over 21 runs, want one per 1024 packets", entries, got)
			}
			if withPass && passes == 0 || entries > 0 && fewestFolded == 0 {
				t.Errorf("cache=%d onPass=%v: degenerate run: %d pass events, fewest demoted packets folded in a run %d", entries, withPass, passes, fewestFolded)
			}
		}
	}
}

// TestEstimateZeroAllocs: Estimate sits under every query and top-k
// correction, so it must not allocate — with or without the hot cache.
func TestEstimateZeroAllocs(t *testing.T) {
	tr := batchTrace(t, 1000, 60_000, 9)
	for _, cache := range []int{0, 256} {
		eng := testEngine(t, Config{SketchMemoryBytes: 8 << 10, WSAFEntries: 1 << 14, HotCacheEntries: cache, Seed: 1})
		eng.ProcessBatch(tr.Packets)
		next := 0
		allocs := testing.AllocsPerRun(1000, func() {
			eng.Estimate(tr.Packets[next%len(tr.Packets)].Key)
			next++
		})
		if allocs != 0 {
			t.Errorf("cache=%d: Estimate allocates %.1f objects per call, want 0", cache, allocs)
		}
	}
}

func TestProcessBatchEmpty(t *testing.T) {
	eng := testEngine(t, Config{})
	eng.ProcessBatch(nil)
	eng.ProcessBatch([]packet.Packet{})
	if eng.Packets() != 0 {
		t.Errorf("empty batches counted %d packets", eng.Packets())
	}
}

// TestHashSeedDecouplesSketchRandomness pins the shared-nothing pipeline's
// cross-worker hash contract: two engines with the same HashSeed but
// different Seeds accept the same externally computed hashes (via
// ProcessHashed, the records indexing the whole trace as their base) and
// agree with their own internal hashing, while their sketch randomness
// stays independent.
func TestHashSeedDecouplesSketchRandomness(t *testing.T) {
	tr := batchTrace(t, 1500, 80_000, 21)
	const hashSeed = 0xABCDEF12345
	cfgA := Config{SketchMemoryBytes: 8 << 10, WSAFEntries: 1 << 14, Seed: 100, HashSeed: hashSeed}
	cfgB := cfgA
	cfgB.Seed = 200

	// Engine A fed externally computed hashes must match a twin hashing
	// internally — the zero-rehash threading is lossless.
	ext := testEngine(t, cfgA)
	twin := testEngine(t, cfgA)
	recs := make([]Hashed, 256)
	hashed := func(i, end int) []Hashed {
		for j := i; j < end; j++ {
			p := &tr.Packets[j]
			recs[j-i] = Hashed{H: p.Key.Hash64(hashSeed), Len: p.Len, I: uint32(j)}
		}
		return recs[:end-i]
	}
	for i := 0; i < len(tr.Packets); i += 256 {
		end := min(i+256, len(tr.Packets))
		ext.ProcessHashed(tr.Packets, hashed(i, end))
		twin.ProcessBatch(tr.Packets[i:end])
	}
	if ext.Table().Stats() != twin.Table().Stats() || ext.LastTS() != twin.LastTS() {
		t.Fatalf("external hashing diverged from internal: %+v vs %+v",
			ext.Table().Stats(), twin.Table().Stats())
	}

	// Engine B shares the hash seed, so the same hashes are valid for its
	// table probes — but its different sketch Seed must actually change
	// the regulator's behaviour (independent random mappings).
	b := testEngine(t, cfgB)
	for i := 0; i < len(tr.Packets); i += 256 {
		end := min(i+256, len(tr.Packets))
		b.ProcessHashed(tr.Packets, hashed(i, end))
	}
	if b.Regulator().Emissions() == ext.Regulator().Emissions() &&
		b.Table().Stats() == ext.Table().Stats() {
		t.Fatal("different sketch Seeds produced identical regulator+table activity — HashSeed failed to decouple")
	}
	if b.Packets() != ext.Packets() {
		t.Fatalf("packet totals differ: %d vs %d", b.Packets(), ext.Packets())
	}
}
