package instameasure

// Benchmark harness: one testing.B benchmark per paper figure/table (each
// regenerates the figure's rows via internal/experiments — run
// cmd/instabench to see the rows themselves), plus hot-path
// micro-benchmarks and ablation benchmarks for the design choices
// DESIGN.md calls out.
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"instameasure/internal/core"
	"instameasure/internal/experiments"
	"instameasure/internal/flowhash"
	"instameasure/internal/flowreg"
	"instameasure/internal/packet"
	"instameasure/internal/pcap"
	"instameasure/internal/pipeline"
	"instameasure/internal/rcc"
	"instameasure/internal/trace"
	"instameasure/internal/wsaf"
)

// benchScale keeps figure regeneration fast enough for -bench=. runs.
var benchScale = experiments.Scale{
	Flows: 10_000, Packets: 200_000,
	DiurnalHours: 12, DiurnalPackets: 150_000,
	Seed: 2019,
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.ByID(id, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per figure/table of the evaluation section.

func BenchmarkFig1RCCSaturation(b *testing.B)     { benchFigure(b, "fig1") }
func BenchmarkFig6Distribution(b *testing.B)      { benchFigure(b, "fig6") }
func BenchmarkFig7Relaxation(b *testing.B)        { benchFigure(b, "fig7") }
func BenchmarkFig8aRetention(b *testing.B)        { benchFigure(b, "fig8a") }
func BenchmarkFig8bSatFrequency(b *testing.B)     { benchFigure(b, "fig8b") }
func BenchmarkFig8cAccuracy(b *testing.B)         { benchFigure(b, "fig8c") }
func BenchmarkFig9bLatency(b *testing.B)          { benchFigure(b, "fig9b") }
func BenchmarkFig10PacketAccuracy(b *testing.B)   { benchFigure(b, "fig10") }
func BenchmarkFig11ByteAccuracy(b *testing.B)     { benchFigure(b, "fig11") }
func BenchmarkFig12Monitoring(b *testing.B)       { benchFigure(b, "fig12") }
func BenchmarkFig13WildAccuracy(b *testing.B)     { benchFigure(b, "fig13") }
func BenchmarkFig14HeavyHitterRates(b *testing.B) { benchFigure(b, "fig14") }
func BenchmarkCSMComparison(b *testing.B)         { benchFigure(b, "csm") }
func BenchmarkIBLTComparison(b *testing.B)        { benchFigure(b, "iblt") }
func BenchmarkAblationEviction(b *testing.B)      { benchFigure(b, "evict") }
func BenchmarkAblationProbing(b *testing.B)       { benchFigure(b, "probe") }
func BenchmarkLayersSweep(b *testing.B)           { benchFigure(b, "layers") }

// BenchmarkFig9aCores regenerates Fig. 9(a) and forwards its headline
// metrics — the 4-worker aggregate Mpps and scaling efficiency — into the
// benchmark output so the archived JSON (and its regression guard) track
// multicore scaling alongside the figure itself.
func BenchmarkFig9aCores(b *testing.B) {
	var mpps, eff float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.ByID("fig9a", benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("fig9a produced no rows")
		}
		// Busy-time capacity model: noise only subtracts, so the max over
		// iterations is the best estimate of true per-core throughput.
		mpps = math.Max(mpps, rep.Metrics["mpps"])
		eff = math.Max(eff, rep.Metrics["scaling_eff"])
	}
	b.ReportMetric(mpps, "Mpps")
	b.ReportMetric(eff, "scaling_eff")
}

// Hot-path micro-benchmarks: the per-packet cost of each pipeline stage.

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	tr, err := trace.GenerateZipf(trace.ZipfConfig{
		Flows: 50_000, TotalPackets: 1_000_000, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkEncodePerPacket(b *testing.B) {
	tr := benchTrace(b)
	eng := core.MustNew(core.Config{SketchMemoryBytes: 32 << 10, WSAFEntries: 1 << 18, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Process(tr.Packets[i%len(tr.Packets)])
	}
	b.ReportMetric(float64(1e3)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "Mpps")
}

// BenchmarkProcessBatchPerPacket is the batched counterpart of
// BenchmarkEncodePerPacket: the same engine and trace, fed in 256-packet
// bursts through the pre-hashed batch path. ns/op is still per packet.
func BenchmarkProcessBatchPerPacket(b *testing.B) {
	tr := benchTrace(b)
	eng := core.MustNew(core.Config{SketchMemoryBytes: 32 << 10, WSAFEntries: 1 << 18, Seed: 1})
	const burst = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		start := i % (len(tr.Packets) - burst)
		n := burst
		if rem := b.N - i; rem < n {
			n = rem
		}
		eng.ProcessBatch(tr.Packets[start : start+n])
	}
	b.ReportMetric(float64(1e3)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "Mpps")
}

// BenchmarkProcessBatchCachedPerPacket is BenchmarkProcessBatchPerPacket
// with the hot-flow promotion cache in front of the WSAF: the same trace
// and burst size, so the ns/op delta between the two is the measured cache
// win the memmodel cross-check validates. Reports the steady-state cache
// hit rate alongside throughput.
func BenchmarkProcessBatchCachedPerPacket(b *testing.B) {
	tr := benchTrace(b)
	eng := core.MustNew(core.Config{
		SketchMemoryBytes: 32 << 10, WSAFEntries: 1 << 18,
		HotCacheEntries: 4096, Seed: 1,
	})
	const burst = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		start := i % (len(tr.Packets) - burst)
		n := burst
		if rem := b.N - i; rem < n {
			n = rem
		}
		eng.ProcessBatch(tr.Packets[start : start+n])
	}
	b.ReportMetric(float64(1e3)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "Mpps")
	b.ReportMetric(float64(eng.HotCache().Stats().Hits)/float64(eng.Packets()), "cache_hit_rate")
}

// benchHashes returns the bench trace's flow hashes, one per packet.
func benchHashes(b *testing.B) []uint64 {
	tr := benchTrace(b)
	hashes := make([]uint64, len(tr.Packets))
	for i := range tr.Packets {
		hashes[i] = tr.Packets[i].Key.Hash64(1)
	}
	return hashes
}

// BenchmarkRCCLocate is the virtual-vector derivation alone — the half of
// BenchmarkRCCEncode that touches no pool word.
func BenchmarkRCCLocate(b *testing.B) {
	c := rcc.MustNew(rcc.Config{MemoryBytes: 32 << 10, VectorBits: 8, Seed: 1})
	hashes := benchHashes(b)
	var loc rcc.Location
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Locate(hashes[i%len(hashes)], &loc)
	}
}

func BenchmarkRCCEncode(b *testing.B) {
	c := rcc.MustNew(rcc.Config{MemoryBytes: 32 << 10, VectorBits: 8, Seed: 1})
	hashes := benchHashes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(hashes[i%len(hashes)])
	}
}

func BenchmarkFlowRegulatorProcess(b *testing.B) {
	reg := flowreg.MustNew(flowreg.Config{Layer: rcc.Config{
		MemoryBytes: 32 << 10, VectorBits: 8, Seed: 1,
	}})
	hashes := benchHashes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Process(hashes[i%len(hashes)], 500)
	}
}

// BenchmarkFlowRegulatorBatch is the regulator as the engine runs it:
// the bench trace's hashes in 256-packet bursts through ProcessBatch, ns
// per packet. 32KiB is the paper's L1 pool, whose words stay in the
// caches; 8MiB is a pool whose words mostly miss them.
func BenchmarkFlowRegulatorBatch(b *testing.B) {
	for _, pool := range []struct {
		name  string
		bytes int
	}{{"32KiB", 32 << 10}, {"8MiB", 8 << 20}} {
		b.Run(pool.name, func(b *testing.B) {
			reg := flowreg.MustNew(flowreg.Config{Layer: rcc.Config{
				MemoryBytes: pool.bytes, VectorBits: 8, Seed: 1,
			}})
			hashes := benchHashes(b)
			lens := make([]int, len(hashes))
			for i := range lens {
				lens[i] = 64 + i%1400
			}
			const burst = 256
			ems, oks := make([]flowreg.Emission, burst), make([]bool, burst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += burst {
				start := i % (len(hashes) - burst)
				n := min(burst, b.N-i)
				reg.ProcessBatch(hashes[start:start+n], lens[start:start+n], ems, oks)
			}
			b.ReportMetric(float64(1e3)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "Mpps")
		})
	}
}

func BenchmarkWSAFAccumulate(b *testing.B) {
	tab := wsaf.MustNew(wsaf.Config{Entries: 1 << 18})
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &tr.Packets[i%len(tr.Packets)]
		tab.Accumulate(p.Key, 50, 25_000, p.TS)
	}
}

// BenchmarkWSAFAccumulateBatch is the scalar benchmark's two-pass
// counterpart: the same table and traffic fed in 256-op bursts the way the
// engine's burst loop feeds it — PrefetchHashed for the whole burst, then
// AccumulateHashed for each op — so the probe-slot loads are in flight
// before the probe pass consumes them. ns/op is still per packet; the
// delta against BenchmarkWSAFAccumulate is the software-prefetch win.
func BenchmarkWSAFAccumulateBatch(b *testing.B) {
	tab := wsaf.MustNew(wsaf.Config{Entries: 1 << 18})
	tr := benchTrace(b)
	const burst = 256
	hashes := make([]uint64, len(tr.Packets))
	for i := range tr.Packets {
		hashes[i] = tr.Packets[i].Key.Hash64(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		start := i % (len(hashes) - burst)
		end := start + min(burst, b.N-i)
		for j := start; j < end; j++ {
			tab.PrefetchHashed(hashes[j])
		}
		for j := start; j < end; j++ {
			p := &tr.Packets[j]
			tab.AccumulateHashed(hashes[j], p.Key, 50, 25_000, p.TS)
		}
	}
}

func BenchmarkFlowKeyHash(b *testing.B) {
	k := packet.V4Key(0xC0A80101, 0x08080808, 443, 51234, packet.ProtoTCP)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.Hash64(uint64(i))
	}
}

// Cut-and-query benchmarks, one whole snapshot / top-k / export per b.N, on
// the paper's 2^20-slot table at the two loads the repository benchmark
// runs it at: ~0.3 % (zipf_hot) and ~3 % (mice_churn). Rows of the layered
// ledger (make bench-layers).

var sparseLoads = []struct {
	name string
	live int
}{
	{"load0.3pct", 3_146},
	{"load3pct", 31_457},
}

// fillSparse tops tab up to live entries with synthetic flows of varied
// size, so a top-k over it has work to do.
func fillSparse(tab *wsaf.Table, live int, now int64) {
	for i := 0; tab.Len() < live; i++ {
		k := packet.V4Key(0x0A000000+uint32(i), 0x08080808, uint16(i), 443, packet.ProtoTCP)
		tab.Accumulate(k, float64(10+i%977), float64(1000+i%7919), now)
	}
}

// ageTable leaves every page of tab's slot array written, as on a meter
// past its first windows: memory never written reads back from the
// kernel's one shared zero page, which would flatter any pass over empty
// slots.
func ageTable(tab *wsaf.Table) {
	fillSparse(tab, tab.Capacity()*3/4, 1)
	tab.Reset()
}

// sparseMeter is a meter whose aged table holds live flows: the bench
// trace first, so a hot cache (when on) is populated the way traffic
// populates it, then synthetic flows up to the load.
func sparseMeter(b *testing.B, tr *trace.Trace, live, hotCache int) *Meter {
	b.Helper()
	m, err := New(Config{HotCacheEntries: hotCache, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng := m.sys.Engines()[0]
	ageTable(eng.Table())
	const burst = 256
	for i := 0; i < len(tr.Packets); i += burst {
		m.ProcessBatch(tr.Packets[i:min(i+burst, len(tr.Packets))])
	}
	if eng.Table().Len() > live {
		b.Fatalf("bench trace alone leaves %d live flows, above the %d-flow load", eng.Table().Len(), live)
	}
	fillSparse(eng.Table(), live, eng.LastTS())
	return m
}

// reportMentries adds live entries visited per second in the unit
// cmd/benchjson guards.
func reportMentries(b *testing.B, live int) {
	b.ReportMetric(float64(b.N)*float64(live)*1e3/float64(b.Elapsed().Nanoseconds()), "Mpps")
}

// forSparseMeters runs fn once per load, with and without the hot cache.
func forSparseMeters(b *testing.B, fn func(b *testing.B, m *Meter)) {
	tr := benchTrace(b)
	for _, load := range sparseLoads {
		for _, cache := range []struct {
			name    string
			entries int
		}{{"uncached", 0}, {"cached", 4096}} {
			m := sparseMeter(b, tr, load.live, cache.entries)
			b.Run(load.name+"/"+cache.name, func(b *testing.B) {
				b.ReportAllocs()
				fn(b, m)
				reportMentries(b, load.live)
			})
		}
	}
}

// BenchmarkWSAFSnapshotSparse is the table walk alone: copy every live
// entry out of a table that is almost all empty slots.
func BenchmarkWSAFSnapshotSparse(b *testing.B) {
	for _, load := range sparseLoads {
		tab := wsaf.MustNew(wsaf.Config{Entries: 1 << 20})
		ageTable(tab)
		fillSparse(tab, load.live, 1)
		b.Run(load.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if snap := tab.Snapshot(0); len(snap) != load.live {
					b.Fatalf("snapshot holds %d entries, want %d", len(snap), load.live)
				}
			}
			reportMentries(b, load.live)
		})
	}
}

// BenchmarkEngineTopK1k is the query: the 1 000 largest flows by packets,
// hot-cache deltas merged in when the cache is on.
func BenchmarkEngineTopK1k(b *testing.B) {
	forSparseMeters(b, func(b *testing.B, m *Meter) {
		for i := 0; i < b.N; i++ {
			if top := m.TopKPackets(1000); len(top) != 1000 {
				b.Fatalf("top-k holds %d entries", len(top))
			}
		}
	})
}

// BenchmarkExportSnapshot is the epoch cut: walk, convert to export
// records and encode the snapshot file to a writer that discards.
func BenchmarkExportSnapshot(b *testing.B) {
	forSparseMeters(b, func(b *testing.B, m *Meter) {
		for i := 0; i < b.N; i++ {
			if err := m.ExportSnapshot(io.Discard, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Wire-path benchmarks, one frame per b.N: the first rows of the layered
// ledger (make bench-layers).

// benchCapture is a 250k-frame Ethernet capture snapped at 96 bytes, every
// 100th frame an ARP request the parser must skip. frames[i] is record i's
// frame inside raw; ends[i] is the offset just past it, so raw[:ends[n-1]]
// is a valid n-frame capture.
func benchCapture(b *testing.B) (raw []byte, frames [][]byte, ends []int) {
	b.Helper()
	tr, err := trace.GenerateZipf(trace.ZipfConfig{Flows: 20_000, TotalPackets: 250_000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	arp := make([]byte, 60)
	arp[12], arp[13] = 0x08, 0x06
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.LinkEthernet, 96)
	end := 24 // global header
	for i, p := range tr.Packets {
		frame := arp
		if i%100 != 99 {
			if frame, err = packet.BuildEthernet(p, 96); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Write(p.TS, max(int(p.Len), len(frame)), frame); err != nil {
			b.Fatal(err)
		}
		end += 16 + len(frame)
		ends = append(ends, end)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	raw = buf.Bytes()
	for i, end := range ends {
		start := 24 + 16
		if i > 0 {
			start = ends[i-1] + 16
		}
		frames = append(frames, raw[start:end])
	}
	return raw, frames, ends
}

// reportMframes adds frames per second in the unit cmd/benchjson guards.
func reportMframes(b *testing.B) {
	b.ReportMetric(float64(b.N)*1e3/float64(b.Elapsed().Nanoseconds()), "Mpps")
}

// BenchmarkPcapRead is the record reader alone: header decode plus the
// body copy into the Reader's buffer.
func BenchmarkPcapRead(b *testing.B) {
	raw, _, _ := benchCapture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		r, err := pcap.NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for ; i < b.N; i++ {
			if _, err := r.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					b.Fatal(err)
				}
				break
			}
		}
	}
	reportMframes(b)
}

// BenchmarkParseEthernet is the frame parser alone on pre-located frames,
// the 1 % it skips included.
func BenchmarkParseEthernet(b *testing.B) {
	_, frames, _ := benchCapture(b)
	var sink packet.Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		if p, err := packet.ParseEthernet(f, len(f), 0); err == nil {
			sink = p
		}
	}
	_ = sink
	reportMframes(b)
}

// BenchmarkReadPcap is the materialised path a meter run waits on: read,
// parse and collect the whole capture as a Trace.
func BenchmarkReadPcap(b *testing.B) {
	raw, _, ends := benchCapture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ends) {
		n := min(len(ends), b.N-i)
		tr, err := trace.ReadPcap(bytes.NewReader(raw[:ends[n-1]]))
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Packets) != n-n/100 {
			b.Fatalf("read %d packets from %d frames", len(tr.Packets), n)
		}
	}
	reportMframes(b)
}

// BenchmarkPipelineRun is the layer after ReadPcap: the sharded pipeline
// over a materialised 1M-packet trace, two workers striping it, hashing,
// sharding, exchanging and metering it — one packet per op, wall time (on
// a host with fewer cores than workers, the workers' shared time). The
// system persists across runs, as a meter's does across epochs.
func BenchmarkPipelineRun(b *testing.B) {
	tr := benchTrace(b)
	sys, err := pipeline.New(pipeline.Config{Workers: 2, Engine: core.Config{WSAFEntries: 1 << 19, Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(tr.Packets) {
		n := min(len(tr.Packets), b.N-i)
		rep, err := sys.Run(trace.NewTrace(tr.Packets[:n]).Source())
		if err != nil || rep.Packets != uint64(n) {
			b.Fatalf("run: %d of %d packets, %v", rep.Packets, n, err)
		}
	}
	reportMframes(b)
}

// BenchmarkPipelineScaling sweeps the shared-nothing pipeline over 1/2/4/8
// workers and reports the modeled aggregate throughput (Mpps) plus
// scaling_eff = aggregate(N) / (N × aggregate(1)). Throughput is modeled
// from per-worker busy time (Report.AggregateMPPS) so the sweep measures
// the architecture — per-worker work split, ring-exchange overhead, shard
// imbalance — rather than how many physical cores this host happens to
// have. Total WSAF memory is held fixed across the sweep (entries divided
// per worker), matching the paper's fixed 2^20-entry budget. The trace
// uses a flatter Zipf skew than the accuracy benches: per-policy load
// balance is what's under test, and a single elephant flow would dominate
// any flow-affine pipeline regardless of architecture.
func BenchmarkPipelineScaling(b *testing.B) {
	tr, err := trace.GenerateZipf(trace.ZipfConfig{
		Flows: 100_000, TotalPackets: 1_000_000, Skew: 0.5, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	runOnce := func(b *testing.B, workers int) float64 {
		b.Helper()
		sys, err := pipeline.New(pipeline.Config{
			Workers: workers,
			Engine: core.Config{
				SketchMemoryBytes: 32 << 10,
				WSAFEntries:       (1 << 18) / workers,
				Seed:              1,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Run(tr.Source())
		if err != nil {
			b.Fatal(err)
		}
		return rep.AggregateMPPS()
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			// Busy-time capacity is a model of the hardware-independent
			// best: scheduler and GC noise only ever subtract from it, so
			// the max over runs is the consistent estimator (two
			// calibration runs for the same reason).
			base := math.Max(runOnce(b, 1), runOnce(b, 1))
			var agg float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg = math.Max(agg, runOnce(b, workers))
			}
			b.ReportMetric(agg, "Mpps")
			b.ReportMetric(agg/(float64(workers)*base), "scaling_eff")
		})
	}
}

// Ablation benchmarks: the design choices DESIGN.md calls out.

// BenchmarkAblationLayers compares WSAF pressure of the two-layer
// FlowRegulator against single-layer RCC on identical traffic — the
// paper's headline design choice.
func BenchmarkAblationLayers(b *testing.B) {
	hashes := benchHashes(b)
	b.Run("single-layer-rcc", func(b *testing.B) {
		c := rcc.MustNew(rcc.Config{MemoryBytes: 128 << 10, VectorBits: 8, Seed: 1})
		for i := 0; i < b.N; i++ {
			c.Encode(hashes[i%len(hashes)])
		}
		if c.Encodes() > 0 {
			b.ReportMetric(float64(c.Saturations())/float64(c.Encodes())*100, "%ips/pps")
		}
	})
	b.Run("two-layer-flowregulator", func(b *testing.B) {
		reg := flowreg.MustNew(flowreg.Config{Layer: rcc.Config{
			MemoryBytes: 32 << 10, VectorBits: 8, Seed: 1,
		}})
		for i := 0; i < b.N; i++ {
			reg.Process(hashes[i%len(hashes)], 500)
		}
		b.ReportMetric(reg.RegulationRate()*100, "%ips/pps")
	})
}

// BenchmarkAblationSharding compares the paper's popcount sharding with
// a per-packet spray (no flow affinity) across 4 workers.
func BenchmarkAblationSharding(b *testing.B) {
	tr := benchTrace(b)
	spray := func(h uint64, p *packet.Packet, workers int) int {
		return pipeline.HashShard(flowhash.Mix64(h^uint64(p.TS)), p, workers)
	}
	for _, s := range []struct {
		name  string
		shard pipeline.HashShardFunc
	}{
		{"popcount", pipeline.PopcountShard},
		{"spray", spray},
	} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := pipeline.New(pipeline.Config{
					Workers:    4,
					HashPolicy: s.shard,
					Engine: core.Config{
						SketchMemoryBytes: 16 << 10,
						WSAFEntries:       1 << 16,
						Seed:              1,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Run(tr.Source()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationProbeLimit sweeps the WSAF probe limit, the knob
// behind the second-chance policy's eviction window.
func BenchmarkAblationProbeLimit(b *testing.B) {
	tr := benchTrace(b)
	for _, limit := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("probe-%d", limit), func(b *testing.B) {
			tab := wsaf.MustNew(wsaf.Config{Entries: 1 << 16, ProbeLimit: limit})
			for i := 0; i < b.N; i++ {
				p := &tr.Packets[i%len(tr.Packets)]
				tab.Accumulate(p.Key, 50, 25_000, p.TS)
			}
		})
	}
}

// BenchmarkAblationByteSampling compares saturation-sampled byte counting
// (one multiplication per passthrough) against exact per-packet byte
// accumulation in a NetFlow-style table.
func BenchmarkAblationByteSampling(b *testing.B) {
	tr := benchTrace(b)
	b.Run("saturation-sampled", func(b *testing.B) {
		eng := core.MustNew(core.Config{SketchMemoryBytes: 32 << 10, WSAFEntries: 1 << 18, Seed: 1})
		for i := 0; i < b.N; i++ {
			eng.Process(tr.Packets[i%len(tr.Packets)])
		}
	})
	b.Run("exact-per-packet", func(b *testing.B) {
		tab := wsaf.MustNew(wsaf.Config{Entries: 1 << 18})
		for i := 0; i < b.N; i++ {
			p := &tr.Packets[i%len(tr.Packets)]
			tab.Accumulate(p.Key, 1, float64(p.Len), p.TS)
		}
	})
}
