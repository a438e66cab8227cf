// Package core assembles the paper's measurement engine: a FlowRegulator
// front-end feeding an In-DRAM WSAF table, with saturation-based byte
// counting and a passthrough hook that applications (heavy-hitter
// detection) subscribe to.
//
// One Engine corresponds to one worker core in the paper's architecture; it
// is deliberately not safe for concurrent use. The pipeline package runs
// several Engines in parallel, one per worker, exactly as the prototype
// allocated independent FlowRegulator structures per core.
package core

import (
	"fmt"
	"math/bits"
	"time"

	"instameasure/internal/flight"
	"instameasure/internal/flowreg"
	"instameasure/internal/hll"
	"instameasure/internal/hotcache"
	"instameasure/internal/packet"
	"instameasure/internal/rcc"
	"instameasure/internal/telemetry"
	"instameasure/internal/wsaf"
)

// Config parameterizes an Engine. The zero value of optional fields selects
// the paper's defaults.
type Config struct {
	// SketchMemoryBytes is the L1 counter's memory; total FlowRegulator
	// memory is (1 + noise classes) times this (4× for the default
	// 8-bit vectors — the paper's 32 KB L1 → 128 KB total). 0 means 32 KB.
	SketchMemoryBytes int
	// VectorBits is the per-layer virtual vector size; 0 means 8.
	VectorBits int
	// Layers is the FlowRegulator chain depth; 0 means 2 (the paper's
	// design). Deeper chains trade accuracy for TCAM-grade regulation.
	Layers int
	// WSAFEntries is the WSAF table capacity (power of two); 0 means 2^20,
	// the paper's fixed setting (33 MB of DRAM at 33 bytes/entry).
	WSAFEntries int
	// ProbeLimit bounds WSAF probing; 0 means 16.
	ProbeLimit int
	// WSAFTTL is the WSAF inactivity GC window in trace nanoseconds;
	// 0 disables TTL-based GC.
	WSAFTTL int64
	// HotCacheEntries enables the exact hot-flow promotion cache in
	// front of the FlowRegulator: roughly this many heavy flows get
	// exact single-access packet/byte counting and bypass the regulator
	// and the WSAF on every hit (rounded up to a power-of-two set
	// count). 0 disables the cache — the default, and the paper's
	// original architecture.
	HotCacheEntries int
	// Seed drives all hashing and sketch randomness.
	Seed uint64
	// HashSeed, when non-zero, overrides Seed for flow-key hashing and the
	// WSAF probe sequence while Seed keeps driving sketch randomness. The
	// shared-nothing pipeline sets one HashSeed across all workers so a
	// hash computed at ingest (to shard the packet) is valid on whichever
	// worker's engine and table it lands on; sketch seeds stay per-worker
	// so independent engines explore independent random mappings.
	HashSeed uint64
	// Telemetry, if non-nil, is the metrics registry the engine's hot-path
	// instrumentation publishes into; the multi-core pipeline passes one
	// shared registry to every worker. nil creates a private registry.
	Telemetry *telemetry.Registry
	// Worker selects the registry shard this engine writes (its worker
	// index); engines sharing a registry must use distinct shards.
	Worker int
	// Flight, if non-nil, is the flight recorder the engine's sampled
	// hot-path spans record into; nil uses the process-wide
	// flight.Default() — the recorder is always on.
	Flight *flight.Recorder
}

func (c Config) withDefaults() Config {
	if c.SketchMemoryBytes == 0 {
		c.SketchMemoryBytes = 32 << 10
	}
	if c.VectorBits == 0 {
		c.VectorBits = 8
	}
	if c.WSAFEntries == 0 {
		c.WSAFEntries = 1 << 20
	}
	if c.HashSeed == 0 {
		c.HashSeed = c.Seed
	}
	return c
}

// PassEvent describes one FlowRegulator passthrough that reached the WSAF.
// Pkts and Bytes are the flow's accumulated WSAF totals after the update.
//
// With the hot cache enabled and detection thresholds armed (see
// SetDetectThresholds), a cached flow whose merged totals cross a
// threshold fires a synthetic event with Cached set: Pkts/Bytes carry
// the merged totals (pre-promotion WSAF estimate + exact cache delta),
// while Est and Outcome are zero — the packet never touched the
// regulator or the WSAF.
type PassEvent struct {
	Key     packet.FlowKey
	TS      int64
	Est     flowreg.Emission
	Pkts    float64
	Bytes   float64
	Outcome wsaf.Outcome
	Cached  bool
}

// latencySamplePeriod is the latency sampling period: a burst is timed
// when it holds one of every 1024 packets (two clock reads amortized to
// ~0.1 ns per packet, whatever the burst size).
const latencySamplePeriod = 1024

// publishEvery is the packet/byte counter publication period, in packets.
// Go's atomic store is an XCHG on amd64 (a full locked op), so publishing
// the totals every packet costs ~8% of the scalar budget; every 64 packets
// it is noise, and scrapes see totals at most 64 packets stale. Explicit
// flush points (FlushTelemetry, the getters, worker exit) make the
// counters exact whenever a run hands control back.
const publishEvery = 64

// engineMetrics holds the engine's hot-path telemetry handles. packets
// and bytes are published with single-writer atomic stores every
// publishEvery packets; the rest update only on rare events.
type engineMetrics struct {
	packets telemetry.CounterShard
	bytes   telemetry.CounterShard
	latency telemetry.HistogramShard
	// Hot-cache activity; attached only when the cache is enabled.
	cacheHits   telemetry.CounterShard
	cachePromos telemetry.CounterShard
	cacheDemos  telemetry.CounterShard
}

// Engine is a single-core InstaMeasure instance.
type Engine struct {
	cfg       Config
	reg       *flowreg.Regulator
	table     *wsaf.Table
	card      *hll.Sketch
	cache     *hotcache.Cache // nil unless HotCacheEntries > 0
	onPass    func(PassEvent)
	telemetry *telemetry.Registry
	tm        engineMetrics
	fl        flight.Handle

	packets uint64
	bytes   uint64
	lastTS  int64
	// one/oneRec are Process's burst of one: the packet and its record run
	// the burst loop like any other burst, without allocating.
	one    [1]packet.Packet
	oneRec [1]Hashed
	// sampleT0 is a timed burst's start, kept here rather than in a local
	// so the burst loop does not carry it across its calls.
	sampleT0 time.Time
	// The burst loop's scratch, grown to the largest burst seen:
	// ProcessBatch's records, and the misses' indices and hashes.
	recBuf      []Hashed
	missBuf     []int32
	missHashBuf []uint64
	// victim is the demotion scratch Admit fills when it displaces a
	// cached flow; the delta is folded into the WSAF immediately, so the
	// scratch never outlives one admission.
	victim hotcache.Entry
	// Each's merge scratch, sized to the cache: packed WSAF index<<32 |
	// cache index words, the radix pass's buffer, one bit per cache index
	// merged.
	cand, candTmp, matched []uint64
	merged                 wsaf.Entry
	// tmPacketsBase/tmBytesBase keep the published counters cumulative
	// across window Resets (Prometheus counters must not move backwards).
	tmPacketsBase uint64
	tmBytesBase   uint64
	// tmCacheBase keeps the published cache counters cumulative across
	// window Resets, like the packet/byte bases above.
	tmCacheBase hotcache.Stats
}

// NewRegulator builds the FlowRegulator an Engine of cfg runs, resolving
// cfg's sketch defaults the one way the engine does.
func NewRegulator(cfg Config) (*flowreg.Regulator, error) {
	cfg = cfg.withDefaults()
	reg, err := flowreg.New(flowreg.Config{Layers: cfg.Layers, Layer: rcc.Config{
		MemoryBytes: cfg.SketchMemoryBytes, VectorBits: cfg.VectorBits, Seed: cfg.Seed}})
	if err != nil {
		return nil, fmt.Errorf("flow regulator: %w", err)
	}
	return reg, nil
}

// New builds an Engine from cfg.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	reg, err := NewRegulator(cfg)
	if err != nil {
		return nil, err
	}
	table, err := wsaf.New(wsaf.Config{
		Entries:    cfg.WSAFEntries,
		ProbeLimit: cfg.ProbeLimit,
		TTL:        cfg.WSAFTTL,
		Seed:       cfg.HashSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("wsaf table: %w", err)
	}
	// Flow-cardinality sketch: the WSAF holds only elephants, so the
	// total distinct-flow count needs its own estimator (4 KB, ~1.6%).
	card, err := hll.New(12)
	if err != nil {
		return nil, fmt.Errorf("cardinality sketch: %w", err)
	}
	e := &Engine{cfg: cfg, reg: reg, table: table, card: card}
	if cfg.HotCacheEntries > 0 {
		cache, err := hotcache.New(hotcache.Config{
			Entries: cfg.HotCacheEntries,
			// The admission coin flips get their own stream, decoupled
			// from the sketch randomness derived from the same seed.
			Seed: cfg.Seed ^ 0xCAC4E5EED,
		})
		if err != nil {
			return nil, fmt.Errorf("hot cache: %w", err)
		}
		e.cache = cache
		n := cache.Capacity()
		e.cand, e.candTmp, e.matched = make([]uint64, 0, n), make([]uint64, n), make([]uint64, (n+63)/64)
	}
	e.instrument()
	rec := cfg.Flight
	if rec == nil {
		rec = flight.Default()
	}
	e.fl = rec.Handle(cfg.Worker)
	rec.Instrument(e.telemetry)
	return e, nil
}

// instrument registers the engine's metrics (idempotently — workers
// sharing a registry reuse the same families) and attaches shard handles
// to the regulator and table. Instrumentation is always on; when the
// caller supplied no registry the engine owns a private one, reachable
// via Telemetry().
func (e *Engine) instrument() {
	reg := e.cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry("instameasure", 1)
	}
	e.telemetry = reg
	telemetry.RegisterBuildInfo(reg)
	w := e.cfg.Worker

	e.tm.packets = reg.Counter("packets_total",
		"Packets processed by the measurement engine.").Shard(w)
	e.tm.bytes = reg.Counter("bytes_total",
		"Bytes observed by the measurement engine.").Shard(w)
	e.tm.latency = reg.Histogram("process_latency_ns",
		"Per-packet Process latency in nanoseconds, sampled 1-in-1024.", 24).Shard(w)

	if e.cache != nil {
		e.tm.cacheHits = reg.Counter("hotcache_hits_total",
			"Packets counted exactly by the hot-flow promotion cache (regulator bypassed).").Shard(w)
		e.tm.cachePromos = reg.Counter("hotcache_promotions_total",
			"Flows promoted into the hot cache.").Shard(w)
		e.tm.cacheDemos = reg.Counter("hotcache_demotions_total",
			"Cached flows demoted; their exact deltas were folded back into the WSAF.").Shard(w)
		reg.Gauge("hotcache_capacity_entries",
			"Hot-cache capacity in entries across all workers.").Shard(w).Set(int64(e.cache.Capacity()))
	}

	// FlowRegulator: per-layer recycles, emissions, noise distribution.
	depth := e.reg.Layers()
	ft := &flowreg.Telemetry{
		LayerRecycles: make([]telemetry.CounterShard, depth),
		Emissions: reg.Counter("wsaf_delegations_total",
			"FlowRegulator passthroughs delegated to the WSAF (insertion rate numerator).").Shard(w),
		NoiseLevels: reg.Histogram("l1_noise_level",
			"L1 noise level (zero bits remaining) at recycle time.", 6).Shard(w),
	}
	for k := 0; k < depth; k++ {
		ft.LayerRecycles[k] = reg.Counter(fmt.Sprintf("l%d_recycles_total", k+1),
			fmt.Sprintf("Layer-%d RCC vector recycles (saturations).", k+1)).Shard(w)
	}
	e.reg.SetTelemetry(ft)

	// WSAF: per-outcome ops, probe-length distribution, occupancy.
	wt := &wsaf.Telemetry{
		ProbeLength: reg.Histogram("wsaf_probe_length",
			"Slots probed per WSAF accumulate (quadratic probing policy).", 8).Shard(w),
		Occupancy: reg.Gauge("wsaf_occupancy",
			"Live WSAF entries across all workers.").Shard(w),
	}
	for i, outcome := range []string{"updated", "inserted", "reclaimed", "evicted"} {
		wt.Outcomes[i] = reg.Counter("wsaf_ops_total",
			"WSAF accumulate operations by outcome.", "outcome", outcome).Shard(w)
	}
	e.table.SetTelemetry(wt)

	// Static per-worker capacities and memory, published once.
	reg.Gauge("wsaf_capacity_entries",
		"WSAF table capacity in entries across all workers.").Shard(w).Set(int64(e.table.Capacity()))
	reg.Gauge("sketch_memory_bytes",
		"Total FlowRegulator sketch memory across all workers.").Shard(w).Set(int64(e.reg.MemoryBytes()))
	reg.Gauge("wsaf_memory_bytes",
		"WSAF DRAM consumption (33-byte entries) across all workers.").Shard(w).Set(int64(e.table.MemoryBytes()))

	// Derived ratios, computed at scrape time from the atomic counters.
	packetsC := reg.Counter("packets_total", "")
	delegationsC := reg.Counter("wsaf_delegations_total", "")
	reg.GaugeFunc("regulation_ratio",
		"WSAF delegations over packets (the paper's ips/pps, ~0.01).", func() float64 {
			p := packetsC.Value()
			if p == 0 {
				return 0
			}
			return float64(delegationsC.Value()) / float64(p)
		})
	reg.GaugeFunc("absorption_ratio",
		"Fraction of packet arrivals absorbed by FlowRegulator (~0.99).", func() float64 {
			p := packetsC.Value()
			if p == 0 {
				return 0
			}
			return 1 - float64(delegationsC.Value())/float64(p)
		})
}

// Telemetry returns the registry the engine publishes into.
func (e *Engine) Telemetry() *telemetry.Registry { return e.telemetry }

// MustNew is New for statically-known-good configs; it panics on error.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// OnPass registers a callback invoked whenever a flow passes through
// FlowRegulator into the WSAF — the hook heavy-hitter detection uses for
// saturation-based decoding. Must be set before processing begins.
//
// Cache caveat: with HotCacheEntries > 0, packets absorbed by the hot
// cache bypass the regulator and fire no per-packet pass events. A
// threshold detector must also call SetDetectThresholds so cached flows
// stay detection-visible via synthetic Cached events at their crossings.
func (e *Engine) OnPass(fn func(PassEvent)) { e.onPass = fn }

// SetDetectThresholds arms cache-crossing pass events. Cache hits bypass
// the regulator, so an OnPass subscriber would otherwise never observe a
// promoted flow again — a heavy hitter promoted below its threshold
// would cross it silently. With thresholds armed, the hit that carries a
// cached flow's merged totals (pre-promotion WSAF estimate + exact
// delta) across thresholdPkts packets or thresholdBytes bytes fires one
// synthetic PassEvent with Cached set, once per dimension per cache
// residency. Either threshold may be 0 to disable that dimension. A
// no-op without a cache; must be set before processing begins, alongside
// OnPass.
func (e *Engine) SetDetectThresholds(thresholdPkts, thresholdBytes float64) {
	if e.cache != nil {
		e.cache.SetCrossing(thresholdPkts, thresholdBytes, e.fireCacheCross)
	}
}

// fireCacheCross is the hot cache's crossing callback: it surfaces a
// cached flow's threshold crossing as a detection-visible pass event.
// Crossings fire at most twice per residency, so this is off the
// per-packet budget.
func (e *Engine) fireCacheCross(ce *hotcache.Entry, ts int64) {
	if e.onPass == nil {
		return
	}
	e.onPass(PassEvent{Key: ce.Key, TS: ts, Cached: true,
		Pkts:  ce.BasePkts + float64(ce.Pkts),
		Bytes: ce.BaseBytes + float64(ce.Bytes)})
}

// Hashed is one packet as the engine's packet path takes it: the flow
// key's hash under the engine's HashSeed, the packet's length, and its
// index I in the packet base passed alongside (so a base holds at most
// 2^32 packets). Totals, the cardinality sketch and the regulator need
// nothing more; the key and the time stamp are read from the base only
// for a hot-cache probe or a regulator passthrough (~1 % of packets
// without a cache). So the records are what moves —
// 16 bytes a packet, where a packet is 56 — and the packets stay where
// they were read: the pipeline exchanges records between its workers, and
// no packet is copied between the trace and the engine.
type Hashed struct {
	H   uint64
	Len uint16
	I   uint32
}

// Process measures one packet: it is hashed once and run through
// ProcessHashed as a burst of one, so the scalar path is the burst loop,
// not a second body. Most packets are absorbed by the FlowRegulator;
// roughly 1% reach the WSAF. Bulk callers should prefer ProcessBatch,
// which amortizes the loop's per-burst work.
//
//im:hotpath
func (e *Engine) Process(p packet.Packet) {
	e.one[0] = p
	e.oneRec[0] = Hashed{H: p.Key.Hash64(e.cfg.HashSeed), Len: p.Len}
	e.ProcessHashed(e.one[:], e.oneRec[:])
}

// ProcessBatch measures a burst of packets. The whole burst is hashed in
// one tight loop before any sketch is touched; everything else is
// ProcessHashed over the burst as its own base.
//
//im:hotpath
func (e *Engine) ProcessBatch(batch []packet.Packet) {
	if cap(e.recBuf) < len(batch) {
		e.growScratch(len(batch))
	}
	recs := e.recBuf[:len(batch)]
	seed := e.cfg.HashSeed
	for i := range batch {
		recs[i] = Hashed{H: batch[i].Key.Hash64(seed), Len: batch[i].Len, I: uint32(i)}
	}
	e.ProcessHashed(batch, recs)
}

// ProcessHashed is the engine's one packet path: recs are the burst, in
// order, and each record's I indexes base. The hashes are under this
// engine's HashSeed — the shared-nothing pipeline hashes at ingest to
// shard and threads the values here, so no packet is ever hashed twice.
// The burst runs as staged passes so DRAM misses overlap instead of
// serializing:
//
//	stage 1: totals + hot-cache probe; hits are counted exactly, misses
//	         enter the cardinality sketch and are compacted
//	stage 2: batched FlowRegulator over the misses
//	stage 3: prefetch the WSAF first probe slot of every passthrough
//	stage 4: WSAF accumulate, cache admission, pass event — packet order
//
// base is read where a stage needs a key or a time stamp: the cache probe
// (stage 1), a passthrough (stage 4), and the burst's last packet for
// LastTS.
//
// Without a cache, sketch and table state advance exactly as one packet at
// a time would: the regulator never reads the table, and both consume only
// the packet and its hash, so the staging is invisible. With a cache,
// every probe in a burst runs before any admission: a flow promoted
// mid-burst sends its remaining same-burst packets through the regulator
// and is counted exactly from the next burst (a second same-burst
// passthrough reaches Admit as a duplicate and returns AlreadyCached).
// Totals are conserved either way. Armed cache crossings
// (SetDetectThresholds) fire from the stage-1 probe, before the burst's
// WSAF pass events.
//
// Timing and counter publication are keyed to the packet count (see
// latencySamplePeriod and publishEvery), not to calls, so a burst of one
// reports what a scalar packet always has.
//
//im:hotpath
func (e *Engine) ProcessHashed(base []packet.Packet, recs []Hashed) {
	n := len(recs)
	if n == 0 {
		return
	}
	if cap(e.missHashBuf) < n {
		e.growScratch(n)
	}
	if crossed(e.packets+uint64(n), n, latencySamplePeriod) {
		//im:allow hotpath — latency telemetry seam: a burst holding a 1-in-1024 packet pays one clock read
		e.sampleT0 = time.Now()
	}

	// Stage 1. Misses are written in place, not appended, so the loop
	// around the cache probe carries few values across the call.
	cache := e.cache
	m := 0
	for i := range recs {
		r := &recs[i]
		e.bytes += uint64(r.Len)
		if cache != nil {
			p := &base[r.I]
			if cache.Bump(r.H, &p.Key, r.Len, p.TS) {
				continue
			}
			e.missBuf[m] = int32(i)
		}
		// A cache hit skips the cardinality sketch too: re-adding an
		// already-seen hash is a no-op for HLL registers.
		e.card.Add(r.H)
		e.missHashBuf[m] = r.H
		m++
	}
	e.packets += uint64(n)
	e.lastTS = base[recs[n-1].I].TS

	// Stage 2 runs over the misses; stages 3–4 over the passthroughs it
	// returns.
	mh := e.missHashBuf[:m]
	pass := e.reg.ProcessBurst(mh)
	// Stage 3.
	for j := range pass {
		e.table.PrefetchHashed(mh[pass[j].I])
	}

	// Stage 4. With no cache the misses are the burst itself.
	for _, ps := range pass {
		i := ps.I
		if cache != nil {
			i = e.missBuf[i]
		}
		rec := &recs[i]
		p := &base[rec.I]
		em := ps.Emission(int(rec.Len))
		h := mh[ps.I]
		outcome, entry := e.table.AccumulateHashed(h, p.Key, em.EstPkts, em.EstBytes, p.TS)
		// Copy the totals out before admission: folding a demoted victim
		// into the table may overwrite the entry the pointer aliases. The
		// returned entry fills the pass event, so a passthrough costs
		// exactly one probe sequence.
		evPkts, evBytes := entry.Pkts, entry.Bytes
		if cache != nil {
			// The index is read before admission for the same reason.
			e.admit(h, &p.Key, uint32(e.table.IndexOf(entry)), p.TS, evPkts, evBytes)
		}
		if e.onPass != nil {
			e.onPass(PassEvent{Key: p.Key, TS: p.TS, Est: em,
				Outcome: outcome, Pkts: evPkts, Bytes: evBytes})
		}
	}

	// Decided from the count, not carried across the loops. publishEvery
	// divides latencySamplePeriod, so only a burst that publishes is timed.
	if crossed(e.packets, n, publishEvery) {
		if crossed(e.packets, n, latencySamplePeriod) {
			//im:allow hotpath — latency telemetry seam: paired with the sampled time.Now above
			perPkt := uint64(time.Since(e.sampleT0)) / uint64(n)
			e.tm.latency.Observe(perPkt)
			// The flight span reuses the sample's own clock reads;
			// hotpath holds Span hash- and map-free.
			e.fl.Span(e.sampleT0, uint32(n), perPkt)
		}
		e.publishTotals()
	}
}

// crossed reports whether the last n packets counted, up to after, passed
// a multiple of period.
func crossed(after uint64, n int, period uint64) bool {
	return after%period < uint64(n)
}

// growScratch sizes the burst loop's scratch for bursts of n packets.
func (e *Engine) growScratch(n int) {
	e.recBuf, e.missBuf, e.missHashBuf = make([]Hashed, n), make([]int32, n), make([]uint64, n)
}

// admit offers a regulator passthrough a hot-cache slot and, when an
// incumbent is displaced, folds its exact delta back into the WSAF under
// its stored hash — conservation across tiers: every cache-counted
// packet is either in a live delta or already accumulated here. The
// fold's timestamp is the victim's own LastUpdate, so TTL semantics see
// the flow's true idle time, not the demotion instant. pkts/bytes are
// the flow's WSAF totals after the accumulate that triggered admission —
// the pre-promotion base recorded on the cache entry — and index is the
// entry that accumulate wrote them to.
//
//im:hotpath
func (e *Engine) admit(h uint64, key *packet.FlowKey, index uint32, ts int64, pkts, bytes float64) {
	if e.cache.Admit(h, key, index, ts, pkts, bytes, &e.victim) == hotcache.AdmittedReplaced {
		v := &e.victim
		if v.Pkts > 0 || v.Bytes > 0 {
			// A zero-delta victim (promoted, never hit) has nothing to
			// conserve; folding it would insert a phantom zero entry.
			e.table.AccumulateHashed(v.Hash, v.Key, float64(v.Pkts), float64(v.Bytes), v.LastUpdate)
		}
	}
}

// CacheFoldDrops reports demotion folds the WSAF dropped. It is zero by
// construction — every Accumulate places its flow (see wsaf.Evicted) —
// and stays for the callers that report it.
func (e *Engine) CacheFoldDrops() uint64 { return 0 }

// Estimate returns the engine's current estimate of the flow's packet and
// byte totals: its WSAF entry (if any) plus the fraction still retained
// inside the FlowRegulator.
func (e *Engine) Estimate(key packet.FlowKey) (pkts, bytes float64) {
	// One hash serves the table probe, the cache probe, and the sketch
	// residual; the engine and its table share a hash seed by
	// construction (see New).
	h := key.Hash64(e.cfg.HashSeed)
	if entry, ok := e.table.LookupHashed(h, key, e.lastTS); ok {
		pkts = entry.Pkts
		bytes = entry.Bytes
	}
	if e.cache != nil {
		if ce, ok := e.cache.Lookup(h, key); ok {
			// The exact delta accumulated since promotion, on top of the
			// flow's pre-promotion WSAF estimate.
			pkts += float64(ce.Pkts)
			bytes += float64(ce.Bytes)
		}
	}
	residual := e.reg.EstimateResidual(h)
	pkts += residual
	// Residual bytes are estimated at the flow's mean observed packet
	// size; without an observed entry, fall back to the engine-wide mean.
	if bytes > 0 && pkts > residual {
		bytes += residual * (bytes / (pkts - residual))
	} else if e.packets > 0 {
		bytes += residual * float64(e.bytes) / float64(e.packets)
	}
	return pkts, bytes
}

// Lookup returns the flow's merged record: its WSAF entry plus, when the
// hot cache holds the flow, the exact delta accumulated since promotion
// (no regulator-residual correction — see Estimate for that).
func (e *Engine) Lookup(key packet.FlowKey) (wsaf.Entry, bool) {
	if e.cache == nil {
		return e.table.Lookup(key, e.lastTS)
	}
	h := key.Hash64(e.cfg.HashSeed)
	entry, ok := e.table.LookupHashed(h, key, e.lastTS)
	if ce, cok := e.cache.Lookup(h, key); cok {
		if !ok {
			if ce.Pkts == 0 && ce.Bytes == 0 {
				// Mirror Snapshot's guard: the WSAF entry is gone and
				// nothing has hit since promotion, so there is no live
				// flow to report — synthesizing one here would surface
				// a phantom Snapshot deliberately omits.
				return wsaf.Entry{}, false
			}
			// The pre-promotion WSAF entry expired or was evicted; the
			// live exact segment still represents the flow.
			entry = wsaf.Entry{FlowID: uint32(h ^ (h >> 32)), Key: key,
				FirstSeen: ce.FirstSeen, LastUpdate: ce.LastUpdate}
			ok = true
		}
		entry.Pkts += float64(ce.Pkts)
		entry.Bytes += float64(ce.Bytes)
		if ce.LastUpdate > entry.LastUpdate {
			entry.LastUpdate = ce.LastUpdate
		}
	}
	return entry, ok
}

// Each calls fn for every live flow as one coherent table: the WSAF
// entries in insertion order, each promoted flow's exact cache delta
// merged in, then the cached flows whose WSAF entry is gone, in cache
// order. Epoch export, the store and top-k all read this merged view, so
// the cache tier is invisible downstream. The pointer is valid only during
// the call.
//
// The merge is one pass over the cache, not a probe per cached flow: a
// radix pass puts the entries in the order of their recorded WSAF entry
// indexes (hotcache.Entry.Index), and the table walk, which visits entries
// by index, merges a cached flow at its index when the key there is still
// its own. A flow whose entry another key took over, or whose entry
// expired, follows with its delta alone.
func (e *Engine) Each(fn func(*wsaf.Entry)) {
	if e.cache == nil || e.cache.Len() == 0 {
		e.table.Each(e.lastTS, func(_ int, en *wsaf.Entry) { fn(en) })
		return
	}
	cand := e.cand[:0]
	e.cache.Each(func(i int, ce *hotcache.Entry) { cand = append(cand, uint64(ce.Index)<<32|uint64(i)) })
	cand = radixSortIndex(cand, e.candTmp, bits.Len(uint(e.table.Len())))
	matched := e.matched
	clear(matched)
	e.table.Each(e.lastTS, func(n int, en *wsaf.Entry) {
		for len(cand) > 0 && int(cand[0]>>32) < n {
			cand = cand[1:] // an expired entry: the walk skipped it
		}
		out := en
		for ; len(cand) > 0 && int(cand[0]>>32) == n; cand = cand[1:] {
			i := uint32(cand[0])
			if ce := e.cache.At(int(i)); ce.Key == en.Key {
				matched[i>>6] |= 1 << (i & 63)
				e.merged = *en
				e.merged.Pkts += float64(ce.Pkts)
				e.merged.Bytes += float64(ce.Bytes)
				e.merged.LastUpdate = max(en.LastUpdate, ce.LastUpdate)
				out = &e.merged
			}
		}
		fn(out)
	})
	e.cache.Each(func(i int, ce *hotcache.Entry) {
		if matched[i>>6]>>(i&63)&1 != 0 || ce.Pkts == 0 && ce.Bytes == 0 {
			return
		}
		// The pre-promotion WSAF entry expired (TTL) or was evicted;
		// the exact cached segment still represents a live flow.
		e.merged = wsaf.Entry{FlowID: uint32(ce.Hash ^ (ce.Hash >> 32)), Key: ce.Key,
			Pkts: float64(ce.Pkts), Bytes: float64(ce.Bytes),
			FirstSeen: ce.FirstSeen, LastUpdate: ce.LastUpdate}
		fn(&e.merged)
	})
}

// radixSortIndex sorts index<<32|i words by index, stably, in 8-bit LSD
// passes between a and tmp, and returns whichever holds the result: a
// comparison sort costs more than the walk it feeds, in mispredictions.
func radixSortIndex(a, tmp []uint64, indexBits int) []uint64 {
	for shift := 32; shift < 32+indexBits; shift += 8 {
		var off [256]int
		for _, v := range a {
			off[byte(v>>shift)]++
		}
		sum := 0
		for d, n := range off {
			off[d], sum = sum, sum+n
		}
		tmp = tmp[:len(a)]
		for _, v := range a {
			d := byte(v >> shift)
			tmp[off[d]] = v
			off[d]++
		}
		a, tmp = tmp, a
	}
	return a
}

// Snapshot returns a copy of every live flow, in Each's order.
func (e *Engine) Snapshot() []wsaf.Entry {
	out := make([]wsaf.Entry, 0, e.table.Len())
	e.Each(func(en *wsaf.Entry) { out = append(out, *en) })
	return out
}

// DistinctFlows estimates the number of distinct flows observed since the
// last Reset — mice included, unlike the WSAF population.
func (e *Engine) DistinctFlows() float64 { return e.card.Estimate() }

// publishTotals stores the cumulative packet/byte totals into the
// engine's registry cells (single-writer atomic stores).
func (e *Engine) publishTotals() {
	e.tm.packets.Set(e.tmPacketsBase + e.packets)
	e.tm.bytes.Set(e.tmBytesBase + e.bytes)
	if e.cache != nil {
		s := e.cache.Stats()
		e.tm.cacheHits.Set(e.tmCacheBase.Hits + s.Hits)
		e.tm.cachePromos.Set(e.tmCacheBase.Promotions + s.Promotions)
		e.tm.cacheDemos.Set(e.tmCacheBase.Demotions + s.Demotions)
	}
}

// FlushTelemetry publishes the amortized packet/byte totals exactly.
// Call from the goroutine that owns the engine (it is a flush of the
// owner's counters, not a synchronization point).
func (e *Engine) FlushTelemetry() { e.publishTotals() }

// Packets returns the number of packets processed.
func (e *Engine) Packets() uint64 {
	e.publishTotals()
	return e.packets
}

// Bytes returns the total bytes observed.
func (e *Engine) Bytes() uint64 {
	e.publishTotals()
	return e.bytes
}

// LastTS returns the most recent packet timestamp.
func (e *Engine) LastTS() int64 { return e.lastTS }

// HashSeed returns the resolved flow-key hash seed — what a caller must
// hash with for ProcessHashed to be a zero-rehash path.
func (e *Engine) HashSeed() uint64 { return e.cfg.HashSeed }

// Regulator exposes the FlowRegulator for regulation-rate metrics.
func (e *Engine) Regulator() *flowreg.Regulator { return e.reg }

// HotCache exposes the promotion cache (nil when disabled) for hit-rate
// metrics and the cached differential oracle.
func (e *Engine) HotCache() *hotcache.Cache { return e.cache }

// Table exposes the WSAF table for load/eviction metrics.
func (e *Engine) Table() *wsaf.Table { return e.table }

// SketchMemoryBytes reports total FlowRegulator memory.
func (e *Engine) SketchMemoryBytes() int { return e.reg.MemoryBytes() }

// Reset clears sketches, table, and counters for a fresh measurement
// window. Published telemetry counters stay cumulative across windows
// (Prometheus counters must never move backwards); occupancy drops to 0.
func (e *Engine) Reset() {
	e.reg.Reset()
	e.table.Reset()
	e.card.Reset()
	if e.cache != nil {
		s := e.cache.Stats()
		e.tmCacheBase.Hits += s.Hits
		e.tmCacheBase.Promotions += s.Promotions
		e.tmCacheBase.Demotions += s.Demotions
		e.cache.Reset()
	}
	e.tmPacketsBase += e.packets
	e.tmBytesBase += e.bytes
	e.packets = 0
	e.bytes = 0
	e.lastTS = 0
	e.publishTotals()
}
