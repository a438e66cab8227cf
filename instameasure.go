// Package instameasure is a per-flow traffic measurement library
// reproducing "InstaMeasure: Instant Per-flow Detection Using Large
// In-DRAM Working Set of Active Flows" (ICDCS 2019).
//
// The engine pairs a FlowRegulator — a two-layer recyclable sketch that
// absorbs ~99% of packet arrivals — with a large In-DRAM working set of
// active flows (WSAF), yielding per-flow packet and byte counts, instant
// heavy-hitter detection, and Top-K identification at a memory cost of a
// few hundred kilobytes of sketch plus tens of megabytes of flow table.
//
// # Quickstart
//
//	meter, err := instameasure.New(instameasure.Config{})
//	if err != nil { ... }
//	for _, pkt := range packets {
//		meter.Process(pkt)
//	}
//	for _, rec := range meter.TopKPackets(10) {
//		fmt.Println(rec.Key, rec.Pkts, rec.Bytes)
//	}
//
// The same Meter runs the paper's multi-core system on any number of
// workers (NewCluster); synthetic workloads, pcap replay, and the paper's
// experiment harness live in the trace helpers below and cmd/instabench.
package instameasure

import (
	"fmt"
	"io"

	"instameasure/internal/core"
	"instameasure/internal/detect"
	"instameasure/internal/export"
	"instameasure/internal/packet"
	"instameasure/internal/pipeline"
	"instameasure/internal/topk"
	"instameasure/internal/trace"
	"instameasure/internal/wsaf"
)

// Re-exported fundamental types. Aliases keep the internal packages and the
// public API sharing one set of types.
type (
	// FlowKey is the 5-tuple identity of an L4 flow.
	FlowKey = packet.FlowKey
	// Packet is one packet observation: flow key, wire length, timestamp.
	Packet = packet.Packet
	// PacketSource streams packets in timestamp order, by the burst:
	// NextBatch(buf) fills buf from the front and returns how many
	// packets it wrote. A short read is legal; an error (io.EOF after the
	// last packet) comes only with 0 packets; an empty buf consumes
	// nothing. A source written outside this package implements NextBatch.
	PacketSource = trace.Source
	// Trace is a materialized packet trace with exact ground truth.
	Trace = trace.Trace
	// FlowTruth is a trace's exact per-flow ground truth record.
	FlowTruth = trace.FlowTruth
)

// Protocol numbers for building flow keys.
const (
	ProtoICMP = packet.ProtoICMP
	ProtoTCP  = packet.ProtoTCP
	ProtoUDP  = packet.ProtoUDP
)

// V4Key builds an IPv4 flow key from host-order addresses.
func V4Key(src, dst uint32, srcPort, dstPort uint16, proto uint8) FlowKey {
	return packet.V4Key(src, dst, srcPort, dstPort, proto)
}

// Config parameterizes a Meter. The zero value selects the paper's
// defaults: a 32 KB L1 sketch (128 KB FlowRegulator total), 8-bit virtual
// vectors, and a 2^20-entry WSAF (33 MB of DRAM).
type Config struct {
	// SketchMemoryBytes is the layer-1 sketch memory; FlowRegulator's
	// total is 4× this with the default vectors.
	SketchMemoryBytes int
	// VectorBits is the per-layer virtual vector size (default 8).
	VectorBits int
	// Layers is the FlowRegulator chain depth (default 2, the paper's
	// design); 3 or 4 layers regulate hard enough for TCAM-backed WSAFs.
	Layers int
	// WSAFEntries is the flow-table capacity; must be a power of two
	// (default 2^20).
	WSAFEntries int
	// ProbeLimit bounds WSAF hash probing (default 16).
	ProbeLimit int
	// WSAFTTLNanos expires idle WSAF entries for inline garbage
	// collection; 0 disables TTL GC.
	WSAFTTLNanos int64
	// HotCacheEntries sizes the exact hot-flow promotion cache consulted
	// before the WSAF: cached flows are counted exactly (no sketch noise,
	// no saturation sampling) and bypass the FlowRegulator entirely.
	// 0 disables the cache; ~4096 keeps it L2-resident. Rounded up so the
	// set count is a power of two.
	HotCacheEntries int
	// Seed makes the meter deterministic: two meters with equal configs
	// and equal non-zero seeds produce identical estimates for identical
	// input. 0 (the zero value) draws a fresh random seed for this run —
	// a fixed default would let an attacker craft hash-collision floods —
	// retrievable via Meter.Seed for reproducing the run.
	Seed uint64
}

func (c Config) engineConfig() core.Config {
	return core.Config{
		SketchMemoryBytes: c.SketchMemoryBytes,
		VectorBits:        c.VectorBits,
		Layers:            c.Layers,
		WSAFEntries:       c.WSAFEntries,
		ProbeLimit:        c.ProbeLimit,
		WSAFTTL:           c.WSAFTTLNanos,
		HotCacheEntries:   c.HotCacheEntries,
		Seed:              c.Seed,
	}
}

// FlowRecord is one measured flow: Key, Pkts, Bytes, FirstSeen and
// LastUpdate — the record a cut exports.
type FlowRecord = export.Record

// HeavyHitterEvent reports a flow crossing a detection threshold.
type HeavyHitterEvent struct {
	Key FlowKey
	// TS is the trace timestamp of the packet whose sketch saturation
	// revealed the crossing.
	TS int64
	// Pkts and Bytes are the flow's accumulated estimates at detection.
	Pkts  float64
	Bytes float64
	// ByBytes is true when the byte threshold fired (the packet threshold
	// otherwise).
	ByBytes bool
}

// Stats summarizes a Meter's activity.
type Stats struct {
	// Packets and Bytes are the totals offered to the meter.
	Packets uint64
	Bytes   uint64
	// WSAFInsertions counts FlowRegulator passthroughs; RegulationRate is
	// WSAFInsertions/Packets (the paper's ips/pps, ~1%).
	WSAFInsertions uint64
	RegulationRate float64
	// WSAFEvictions counts live flows displaced by the second-chance
	// policy; WSAFExpirations counts TTL-expired entries reclaimed inline
	// during probing. The two leave-the-table paths are distinct: an
	// eviction loses live state, an expiration is garbage collection.
	// WSAFDrops counts updates the table could not place: zero by
	// construction, since both eviction policies always find a victim in
	// the probe window.
	WSAFEvictions   uint64
	WSAFExpirations uint64
	WSAFDrops       uint64
	// ActiveFlows is the current WSAF population; WSAFLoadFactor its
	// occupancy. DistinctFlowsEst estimates total distinct flows seen —
	// mice included — via a 4 KB cardinality sketch.
	ActiveFlows      int
	WSAFLoadFactor   float64
	DistinctFlowsEst float64
	// SketchMemoryBytes and WSAFMemoryBytes report memory consumption
	// (WSAF uses the paper's 33-byte entry accounting).
	SketchMemoryBytes int
	WSAFMemoryBytes   int
	// Hot-cache activity (all zero when Config.HotCacheEntries is 0).
	// HotCacheHits counts packets absorbed exactly by the cache tier;
	// HotCacheHitRate is HotCacheHits/Packets. Promotions and Demotions
	// count flows entering the cache and incumbents whose exact deltas
	// were folded back into the WSAF.
	HotCacheHits       uint64
	HotCacheHitRate    float64
	HotCachePromotions uint64
	HotCacheDemotions  uint64
	// HotCacheFoldDrops counts demotion folds the WSAF dropped: zero by
	// construction, like WSAFDrops, since every fold places its flow.
	HotCacheFoldDrops uint64
}

// Meter is the measurement system of the paper: one FlowRegulator + WSAF
// engine per worker (a worker core), with flows sharded across the
// workers so each flow lives on exactly one engine. New builds the
// one-worker Meter; NewCluster builds one on any number of workers. Every
// method works at any worker count. A Meter is not safe for concurrent
// use: push calls, Run and queries come from one goroutine at a time.
type Meter struct {
	sys   *pipeline.System
	seed  uint64
	store *FlowStore
	frame []byte // ExportSnapshot's and ExportMeter's cut, reused
}

// Cluster is the Meter's former multi-worker name, kept as an alias.
type Cluster = Meter

// New builds a one-worker Meter from cfg: NewCluster with cfg as the
// worker configuration. A zero cfg.Seed is replaced with a random per-run
// seed (see Config.Seed); Seed reports the value in use.
func New(cfg Config) (*Meter, error) { return NewCluster(ClusterConfig{Meter: cfg}) }

// Seed returns the seed the meter runs under — the value to pass as
// Config.Seed to reproduce this run bit-for-bit.
func (m *Meter) Seed() uint64 { return m.seed }

// Process records one packet on the caller's goroutine, in the engine of
// the worker owning its flow.
func (m *Meter) Process(p Packet) { m.sys.Process(p) }

// ProcessBatch records a burst of packets on the caller's goroutine
// through the batched hot path: the whole batch is hashed up front and
// per-packet bookkeeping is amortized across the burst (with several
// workers, each engine takes its shard's packets in order). Without a hot
// cache it is equivalent to calling Process on each packet in order, only
// faster. With HotCacheEntries > 0, every packet of the burst is probed
// against the cache before any promotion, so a flow promoted mid-burst is
// counted exactly only from the next burst; totals are the same, and a
// burst of one is exactly Process.
func (m *Meter) ProcessBatch(batch []Packet) { m.sys.ProcessBatch(batch) }

// Run drains src through the workers and blocks until every worker has
// finished; the meter's state carries over from, and into, any other
// runs and push calls. With one worker the engine sees exactly
// ProcessBatch over consecutive BatchSize slices of src.
func (m *Meter) Run(src PacketSource) (ClusterReport, error) {
	rep, err := m.sys.Run(src)
	if err != nil {
		return ClusterReport{}, fmt.Errorf("instameasure: %w", err)
	}
	pkts, emissions := m.sys.TotalRegulation()
	return ClusterReport{
		Packets:        rep.Packets,
		Bytes:          rep.Bytes,
		MPPS:           rep.MPPS(),
		PerWorker:      rep.PerWorker,
		RegulationRate: ratio(emissions, pkts),
	}, nil
}

// OnHeavyHitter arms inline heavy-hitter detection: fn fires the first
// time a flow's estimate crosses thresholdPkts packets or thresholdBytes
// bytes (either may be 0 to disable that dimension). Must be called before
// processing begins.
//
// Each worker's engine gets its own detector, and a flow's packets all
// land on one worker, so each crossing fires once. fn runs on the
// goroutine that processed the packet — the caller's for Process and
// ProcessBatch, the owning worker's during Run — so with several workers
// calls may be concurrent.
func (m *Meter) OnHeavyHitter(thresholdPkts, thresholdBytes float64, fn func(HeavyHitterEvent)) error {
	for _, eng := range m.sys.Engines() {
		d, err := detect.NewHeavyHitterDetector(thresholdPkts, thresholdBytes)
		if err != nil {
			return fmt.Errorf("instameasure: %w", err)
		}
		eng.OnPass(func(ev core.PassEvent) {
			_, pktSeen := d.DetectionTS(ev.Key)
			_, byteSeen := d.ByteDetectionTS(ev.Key)
			d.Observe(ev)
			if fn == nil {
				return
			}
			if _, now := d.DetectionTS(ev.Key); now && !pktSeen {
				fn(HeavyHitterEvent{Key: ev.Key, TS: ev.TS, Pkts: ev.Pkts, Bytes: ev.Bytes})
			}
			if _, now := d.ByteDetectionTS(ev.Key); now && !byteSeen {
				fn(HeavyHitterEvent{Key: ev.Key, TS: ev.TS, Pkts: ev.Pkts, Bytes: ev.Bytes, ByBytes: true})
			}
		})
		// With the hot cache enabled, promoted flows bypass per-packet pass
		// events; arming the thresholds keeps them detection-visible via
		// synthetic crossing events.
		eng.SetDetectThresholds(thresholdPkts, thresholdBytes)
	}
	return nil
}

// owner returns the engine of the worker that owns key's flow.
func (m *Meter) owner(key FlowKey) *core.Engine { return m.sys.Engines()[m.sys.ShardOf(key)] }

// Estimate returns the meter's current estimate of a flow's packet and
// byte totals, including the fraction still retained inside the sketch.
func (m *Meter) Estimate(key FlowKey) (pkts, bytes float64) { return m.owner(key).Estimate(key) }

// Lookup returns the flow's WSAF record, if present.
func (m *Meter) Lookup(key FlowKey) (FlowRecord, bool) {
	e, ok := m.owner(key).Lookup(key)
	if !ok {
		return FlowRecord{}, false
	}
	return export.FromEntry(e), true
}

// Flows returns all measured flows currently resident in the WSAF, worker
// by worker.
func (m *Meter) Flows() []FlowRecord { return records(m.sys.MergedSnapshot()) }

// TopKPackets returns the k largest flows by packet count, largest first.
func (m *Meter) TopKPackets(k int) []FlowRecord {
	return m.topK(k, func(e *wsaf.Entry) float64 { return e.Pkts })
}

// TopKBytes returns the k largest flows by byte volume, largest first.
func (m *Meter) TopKBytes(k int) []FlowRecord {
	return m.topK(k, func(e *wsaf.Entry) float64 { return e.Bytes })
}

// topK selects across the workers' walks: only the k survivors are copied.
// Flows of equal metric come lower worker, then that engine's walk order
// (its earlier WSAF entry; cache-only flows after every entry), first.
func (m *Meter) topK(k int, metric func(*wsaf.Entry) float64) []FlowRecord {
	sel := topk.New[wsaf.Entry](k)
	m.sys.Each(func(e *wsaf.Entry) { sel.Offer(metric(e), e) })
	return records(sel.Sorted())
}

// Stats returns current activity counters, summed across workers; the
// ratios are recomputed from the sums.
func (m *Meter) Stats() Stats {
	var out Stats
	var capacity int
	for _, eng := range m.sys.Engines() {
		table := eng.Table()
		ts := table.Stats()
		out.Packets += eng.Packets()
		out.Bytes += eng.Bytes()
		out.WSAFEvictions += ts.Evictions
		out.WSAFExpirations += ts.Reclaims
		out.WSAFDrops += ts.Drops
		out.ActiveFlows += table.Len()
		capacity += table.Capacity()
		out.DistinctFlowsEst += eng.DistinctFlows()
		out.SketchMemoryBytes += eng.SketchMemoryBytes()
		out.WSAFMemoryBytes += table.MemoryBytes()
		if cache := eng.HotCache(); cache != nil {
			cs := cache.Stats()
			out.HotCacheHits += cs.Hits
			out.HotCachePromotions += cs.Promotions
			out.HotCacheDemotions += cs.Demotions
			out.HotCacheFoldDrops += eng.CacheFoldDrops()
		}
	}
	regPkts, emissions := m.sys.TotalRegulation()
	out.WSAFInsertions = emissions
	out.RegulationRate = ratio(emissions, regPkts)
	out.WSAFLoadFactor = float64(out.ActiveFlows) / float64(capacity)
	out.HotCacheHitRate = ratio(out.HotCacheHits, out.Packets)
	return out
}

// ratio is a/b, 0 when b is.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Reset clears all measurement state, on every worker, for a new window.
func (m *Meter) Reset() {
	for _, eng := range m.sys.Engines() {
		eng.Reset()
	}
}

// Saturated is the meter's readiness probe: non-nil while any
// worker-to-worker exchange ring sits at or above 90% of its capacity
// (sustained saturation adds queueing delay the per-stage timers cannot
// see). Always nil with one worker.
func (m *Meter) Saturated() error { return m.sys.Saturated() }

// ExportSnapshot writes the meter's current flow table to w as a compact,
// checksummed binary snapshot tagged with epoch — the archival path for
// long-term measurement windows. The snapshot carries a stats trailer
// recording the table's update/insert/expiration/eviction activity, summed
// across workers; pre-trailer readers simply stop at the flow records.
func (m *Meter) ExportSnapshot(w io.Writer, epoch int64) error {
	var enc export.Encoder
	enc.BeginSnapshot(m.frame[:0], epoch, m.live())
	var err error
	if m.frame, err = enc.EndSnapshot(m.encodeCut(&enc)); err == nil {
		_, err = w.Write(m.frame)
	}
	if err != nil {
		return fmt.Errorf("instameasure: %w", err)
	}
	return nil
}

// live is the workers' WSAF population: a cut's size, give or take the
// cached flows whose WSAF entry has gone.
func (m *Meter) live() int {
	n := 0
	for _, eng := range m.sys.Engines() {
		n += eng.Table().Len()
	}
	return n
}

// encodeCut walks the workers' live flows once, encoding each merged
// entry into enc as the walk reaches it, and sums their WSAF activity:
// the body of every epoch cut — snapshot file, store commit, collector
// export.
func (m *Meter) encodeCut(enc *export.Encoder) export.TableStats {
	var stats export.TableStats
	for _, eng := range m.sys.Engines() {
		eng.Each(enc.PutEntry)
		ts := eng.Table().Stats()
		stats.Updates += ts.Updates
		stats.Inserts += ts.Inserts
		stats.Expirations += ts.Reclaims
		stats.Evictions += ts.Evictions
		stats.Drops += ts.Drops
	}
	return stats
}

// WSAFActivity summarizes how a snapshot's table churned, splitting the
// two ways an entry leaves the WSAF: second-chance evictions of live
// flows versus inline TTL expirations.
type WSAFActivity = export.TableStats

// SnapshotInfo is a fully decoded snapshot file.
type SnapshotInfo struct {
	Records []FlowRecord
	Epoch   int64
	// Stats is the WSAF activity trailer; HasStats reports whether the
	// file carried one (snapshots written before the trailer do not).
	Stats    WSAFActivity
	HasStats bool
}

// ReadSnapshot loads a snapshot written by ExportSnapshot.
func ReadSnapshot(r io.Reader) (records []FlowRecord, epoch int64, err error) {
	info, err := ReadSnapshotDetail(r)
	if err != nil {
		return nil, 0, err
	}
	return info.Records, info.Epoch, nil
}

// ReadSnapshotDetail loads a snapshot including its stats trailer, when
// present.
func ReadSnapshotDetail(r io.Reader) (SnapshotInfo, error) {
	b, stats, hasStats, err := export.ReadSnapshotStats(r)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("instameasure: %w", err)
	}
	return SnapshotInfo{
		Records:  b.Records,
		Epoch:    b.Epoch,
		HasStats: hasStats,
		Stats:    stats,
	}, nil
}

func records(entries []wsaf.Entry) []FlowRecord {
	out := make([]FlowRecord, len(entries))
	for i, e := range entries {
		out[i] = export.FromEntry(e)
	}
	return out
}

// ClusterConfig parameterizes a Meter on any number of workers.
type ClusterConfig struct {
	// Meter is the per-worker configuration. WSAFEntries applies per
	// worker.
	Meter Config
	// Workers is the number of worker goroutines (paper: worker cores);
	// 0 means 1.
	Workers int
	// BatchSize is the burst size packets are read, exchanged and
	// processed in (default 256). Larger batches amortize handoff and
	// hashing further at the cost of detection granularity.
	BatchSize int
	// Shard selects how flows map to workers.
	Shard ShardPolicy
}

// ShardPolicy names a flow-to-worker mapping.
type ShardPolicy int

const (
	// ShardByHash (the default) scales the per-packet flow hash — already
	// computed for the sketches — into a worker index. Load-balanced
	// regardless of address structure.
	ShardByHash ShardPolicy = iota
	// ShardByPopcount dispatches on the source-IP popcount, the paper's
	// policy. Kept for Fig. 9 fidelity; it concentrates load on the
	// workers owning middling bit counts.
	ShardByPopcount
)

// ClusterReport summarizes one Run. RegulationRate is cumulative: the
// meter's regulator emissions over regulated packets since its last Reset.
type ClusterReport struct {
	Packets        uint64
	Bytes          uint64
	MPPS           float64
	PerWorker      []uint64
	RegulationRate float64
}

// NewCluster builds a Meter on cfg.Workers workers. A zero cfg.Meter.Seed
// is replaced with a random per-run seed (see Config.Seed); Seed reports
// it.
func NewCluster(cfg ClusterConfig) (*Meter, error) {
	if cfg.Meter.Seed == 0 {
		cfg.Meter.Seed = RandomSeed()
	}
	var policy pipeline.HashShardFunc
	if cfg.Shard == ShardByPopcount {
		policy = pipeline.PopcountShard
	}
	sys, err := pipeline.New(pipeline.Config{
		Workers:    cfg.Workers,
		BatchSize:  cfg.BatchSize,
		HashPolicy: policy,
		Engine:     cfg.Meter.engineConfig(),
	})
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	return &Meter{sys: sys, seed: cfg.Meter.Seed}, nil
}
