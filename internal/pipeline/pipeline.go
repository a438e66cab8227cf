// Package pipeline implements the paper's multi-core measurement system
// (Section IV.C): packets are distributed to per-worker engines by a
// flow-affine shard policy, and each worker core runs an independent
// FlowRegulator + WSAF engine over its exclusive memory block. Workers
// never share mutable state, so the design scales with cores exactly as
// the prototype did.
//
// There is one architecture, shared-nothing, for every source: each worker
// pulls bursts from the source, hashes each packet once, keeps the packets
// its shard owns, and hands the rest to their owners over lock-free SPSC
// rings — no goroutine touches every packet, so ingest capacity grows with
// workers. (The paper's own layout, one manager core dispatching to the
// workers, is what bounds its Fig. 9a.) A source that can be split
// (trace.SplittableSource) is read in place, the workers claiming chunks
// of it in turn; one that cannot (a pcap stream, a paced source) is
// shared, the workers taking turns to read a burst under a mutex
// (trace.Share) into the run's arena.
//
// What crosses a ring is a 16-byte core.Hashed record — the flow hash,
// the length, and the packet's index in the run's packet base — never the
// packet: engines read the packets they need from the base where they
// lie, so no packet is copied between the trace and the engine. Records
// travel in bursts (the DPDK idiom the prototype was built on), which
// keeps the per-packet synchronization cost negligible, and the hash in
// the record means no packet is ever hashed twice
// (TestShardedSingleHashPerPacket counts the hashes of a four-worker run
// across this seam).
//
// Per-engine packet order depends on scheduling once there is more than
// one worker. A run with Workers: 1 is bit-reproducible: no packet crosses
// a ring, and the engine sees exactly Engine.ProcessBatch over consecutive
// BatchSize slices of the source.
package pipeline

import (
	"fmt"
	"strconv"
	"time"

	"instameasure/internal/core"
	"instameasure/internal/flight"
	"instameasure/internal/flowhash"
	"instameasure/internal/packet"
	"instameasure/internal/telemetry"
	"instameasure/internal/wsaf"
)

// HashShardFunc maps a packet to a worker index using the packet's
// precomputed flow hash. Policies must be pure functions of (h, p,
// workers) — every ingesting worker shards independently and all must
// agree where a packet goes.
type HashShardFunc func(h uint64, p *packet.Packet, workers int) int

// HashShard is the load-balanced default policy: the flow hash's high 32
// bits, already computed for the sketches, are scaled into [0, workers)
// by fixed-point multiplication (no modulo bias, no re-hash). Flows land
// uniformly regardless of address structure, unlike popcount's binomial
// pileup on middling bit counts.
func HashShard(h uint64, _ *packet.Packet, workers int) int {
	return int((h >> 32) * uint64(workers) >> 32)
}

// PopcountShard is the paper's policy: the number of 1 bits in the source
// IP address selects the worker. The hash is ignored.
func PopcountShard(_ uint64, p *packet.Packet, workers int) int {
	return flowhash.PopCount32(p.Key.SrcIPv4()) % workers
}

// Config parameterizes a System.
type Config struct {
	// Workers is the number of worker cores; 0 means 1.
	Workers int
	// QueueDepth is the capacity in packets of each exchange ring (one per
	// ordered pair of workers); 0 means 4096. The depth bounds memory and
	// is the back-pressure point Saturated and the worker_queue_depth gauge
	// watch; a shared source's arena holds QueueDepth/BatchSize + 2 bursts
	// per worker, so a worker whose records fill a lane can read on.
	QueueDepth int
	// BatchSize is the burst size packets travel in; 0 means 256.
	BatchSize int
	// Engine is the per-worker engine configuration. WSAF entries are
	// per worker; to match the paper's fixed 2^20 total, divide by
	// Workers before calling New.
	Engine core.Config
	// HashPolicy selects the shard policy; nil means HashShard (the
	// load-balanced default). Paper-faithful runs pass PopcountShard.
	HashPolicy HashShardFunc
	// DropWhenFull makes ingest drop packets instead of blocking when the
	// destination worker's exchange ring is full — the lossy head-of-line
	// policy of a real NIC ring.
	// Dropped packets are counted against the destination worker in
	// Report.Dropped and the telemetry registry. Default false (lossless
	// back-pressure).
	DropWhenFull bool
}

// Report summarizes a completed run.
type Report struct {
	Packets   uint64
	Bytes     uint64
	WallTime  time.Duration
	PerWorker []uint64
	// BusyTime is each worker's measurement work — hash, shard, exchange,
	// engine. Reading the source is not in it (a paced source sleeps, a
	// shared one waits its turn), nor is time yielded waiting on another
	// worker (for ring space, or for an arena slot's release).
	BusyTime []time.Duration
	// Queued counts packets that reached each worker; Dropped counts
	// packets discarded for that worker because its exchange ring was full
	// (only non-zero with Config.DropWhenFull). For worker i, Queued[i] =
	// PerWorker[i] and Queued[i]+Dropped[i] is the load the shard policy
	// offered it.
	Queued  []uint64
	Dropped []uint64
}

// Imbalance reports the offered-load skew across workers: the maximum
// worker's share of (queued+dropped) packets over the mean share. 1.0 is
// perfectly balanced; a policy that sprays packets regardless of flow sits
// at ~1.0 while PopcountShard inherits the binomial popcount
// distribution's skew.
func (r Report) Imbalance() float64 {
	if len(r.Queued) == 0 {
		return 0
	}
	var total, max uint64
	for i := range r.Queued {
		offered := r.Queued[i]
		if i < len(r.Dropped) {
			offered += r.Dropped[i]
		}
		total += offered
		if offered > max {
			max = offered
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(r.Queued))
	return float64(max) / mean
}

// MPPS returns the observed throughput in million packets per second.
func (r Report) MPPS() float64 {
	if r.WallTime <= 0 {
		return 0
	}
	return float64(r.Packets) / r.WallTime.Seconds() / 1e6
}

// AggregateMPPS models the pipeline's throughput with one core per
// worker: total packets over the bottleneck worker's busy time. On a host
// with fewer cores than workers the scheduler serializes the workers, so
// MPPS() (wall-clock) understates what the shared-nothing design delivers
// on real hardware; dividing by the busiest worker's CPU time instead
// recovers the as-if-parallel rate — the Fig. 9a methodology.
func (r Report) AggregateMPPS() float64 {
	var max time.Duration
	for _, bt := range r.BusyTime {
		if bt > max {
			max = bt
		}
	}
	if max <= 0 {
		return 0
	}
	return float64(r.Packets) / max.Seconds() / 1e6
}

// Utilization returns each worker's busy fraction (processing time over
// wall time) — the per-core CPU-usage proxy for the Fig. 12 experiment.
func (r Report) Utilization() []float64 {
	out := make([]float64, len(r.BusyTime))
	for i, b := range r.BusyTime {
		if r.WallTime > 0 {
			out[i] = float64(b) / float64(r.WallTime)
		}
	}
	return out
}

// System is a multi-core measurement pipeline. It serves any number of
// consecutive runs, and push calls between them, over the same engines.
type System struct {
	cfg     Config
	engines []*core.Engine
	// push[w] stages the records of a pushed burst that worker w owns, and
	// one is Process's burst of one (see ProcessBatch).
	push [][]core.Hashed
	one  [1]packet.Packet
	// rings[f][t] carries the records of packets read by worker f but
	// owned by worker t (nil for f == t), QueueDepth records per lane. They hang here, not
	// in the run, so Saturated and the queue-depth gauge can read them; a
	// finished run drops their buffers.
	rings  [][]*ring
	policy HashShardFunc
	// hashSeed is the flow-key hash seed shared by every worker engine:
	// a hash computed at ingest shards the packet and then probes
	// whichever worker's sketches and table it lands on.
	hashSeed uint64
	batch    int

	telemetry     *telemetry.Registry
	flight        *flight.Recorder
	workerPackets []telemetry.CounterShard
	workerDropped []telemetry.CounterShard
}

// New builds a System with per-worker engines whose seeds derive from the
// base engine seed so workers never collide in hash space.
func New(cfg Config) (*System, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.HashPolicy == nil {
		cfg.HashPolicy = HashShard
	}
	// One hash seed across all workers (see System.hashSeed). Seed zero
	// still needs a concrete shared value — worker engines derive
	// distinct sketch seeds from it, and HashSeed==0 would fall back to
	// each worker's own derived seed.
	hashSeed := cfg.Engine.HashSeed
	if hashSeed == 0 {
		hashSeed = cfg.Engine.Seed
	}
	if hashSeed == 0 {
		hashSeed = 0x1A57A4EA5EED // default shared hash seed
	}
	// Every worker engine shares one registry, sharded by worker, and the
	// process-wide flight recorder.
	reg := telemetry.NewRegistry("instameasure", cfg.Workers)
	rec := flight.Default()
	s := &System{
		cfg:           cfg,
		flight:        rec,
		engines:       make([]*core.Engine, cfg.Workers),
		push:          make([][]core.Hashed, cfg.Workers),
		rings:         make([][]*ring, cfg.Workers),
		policy:        cfg.HashPolicy,
		hashSeed:      hashSeed,
		batch:         cfg.BatchSize,
		telemetry:     reg,
		workerPackets: make([]telemetry.CounterShard, cfg.Workers),
		workerDropped: make([]telemetry.CounterShard, cfg.Workers),
	}
	packetCounters := make([]*telemetry.Counter, cfg.Workers)
	droppedCounters := make([]*telemetry.Counter, cfg.Workers)
	for f := range s.rings {
		s.rings[f] = make([]*ring, cfg.Workers)
		for t := range s.rings[f] {
			if t != f {
				s.rings[f][t] = newRing(cfg.QueueDepth)
			}
		}
	}
	for i := range s.engines {
		engCfg := cfg.Engine
		engCfg.Seed = cfg.Engine.Seed + uint64(i)*0x9E3779B97F4A7C15
		engCfg.HashSeed = hashSeed
		engCfg.Telemetry = reg
		engCfg.Worker = i
		engCfg.Flight = rec
		eng, err := core.New(engCfg)
		if err != nil {
			return nil, fmt.Errorf("worker %d engine: %w", i, err)
		}
		s.engines[i] = eng

		label := strconv.Itoa(i)
		packetCounters[i] = reg.Counter("worker_packets_total",
			"Packets processed, per worker.", "worker", label)
		droppedCounters[i] = reg.Counter("worker_dropped_total",
			"Packets dropped at a full exchange ring (DropWhenFull policy), per destination worker.",
			"worker", label)
		s.workerPackets[i] = packetCounters[i].Shard(i)
		s.workerDropped[i] = droppedCounters[i].Shard(i)
		// The closure holds worker i's inbound lanes, not the System: a
		// registry can outlive its System (a caller that scrapes it keeps
		// it), and must not pin the engines' tables with it.
		in := s.inbound(i)
		reg.GaugeFunc("worker_queue_depth",
			"Packets buffered for a worker across its inbound exchange rings.",
			func() float64 {
				n := 0
				for _, r := range in {
					n += r.len() // approximate while a run is in flight
				}
				return float64(n)
			},
			"worker", label)
	}
	reg.GaugeFunc("shard_imbalance",
		"Max worker offered load over the mean (1.0 = perfectly balanced).",
		func() float64 {
			var total, max uint64
			for i := range packetCounters {
				offered := packetCounters[i].Value() + droppedCounters[i].Value()
				total += offered
				if offered > max {
					max = offered
				}
			}
			if total == 0 {
				return 0
			}
			return float64(max) / (float64(total) / float64(len(packetCounters)))
		})
	return s, nil
}

// Telemetry returns the registry shared by every worker engine.
func (s *System) Telemetry() *telemetry.Registry { return s.telemetry }

// Flight returns the recorder shared by every worker engine.
func (s *System) Flight() *flight.Recorder { return s.flight }

// inbound returns worker w's inbound lanes, one per other worker.
func (s *System) inbound(w int) []*ring {
	var in []*ring
	for f := range s.rings {
		if f != w {
			in = append(in, s.rings[f][w])
		}
	}
	return in
}

// Saturated is the pipeline's readiness probe: it errors when any exchange
// lane holds 90% of QueueDepth or more — sustained saturation means the
// detection-delay bound is at risk (queueing delay is invisible to
// per-stage timers).
func (s *System) Saturated() error {
	for f := range s.rings {
		for t, r := range s.rings[f] {
			if r != nil && r.len()*10 >= s.cfg.QueueDepth*9 {
				return fmt.Errorf("worker %d inbound ring from worker %d saturated: %d/%d packets buffered",
					t, f, r.len(), s.cfg.QueueDepth)
			}
		}
	}
	return nil
}

// Workers returns the worker count.
func (s *System) Workers() int { return len(s.engines) }

// ShardOf returns the worker index the system's shard policy assigns to
// flow key k, over the shared hash seed. Callers use it to locate the
// engine owning a flow.
func (s *System) ShardOf(k packet.FlowKey) int {
	if len(s.engines) == 1 {
		return 0
	}
	p := packet.Packet{Key: k}
	return s.policy(k.Hash64(s.hashSeed), &p, len(s.engines))
}

// Process measures one packet on the caller's goroutine: ProcessBatch of a
// burst of one.
func (s *System) Process(p packet.Packet) {
	if len(s.engines) == 1 {
		s.engines[0].Process(p)
		return
	}
	s.one[0] = p
	s.ProcessBatch(s.one[:])
}

// ProcessBatch measures a burst on the caller's goroutine, without the
// workers: one worker's engine takes it whole; with more, each packet is
// hashed once and its record handed, in order, to its shard's engine,
// which reads the packet in batch. Not safe for concurrent use, nor while
// Run is in flight.
func (s *System) ProcessBatch(batch []packet.Packet) {
	if len(s.engines) == 1 {
		s.engines[0].ProcessBatch(batch)
		return
	}
	for i := range batch {
		p := &batch[i]
		h := p.Key.Hash64(s.hashSeed)
		w := s.policy(h, p, len(s.engines))
		s.push[w] = append(s.push[w], core.Hashed{H: h, Len: p.Len, I: uint32(i)})
	}
	for w, recs := range s.push {
		if len(recs) > 0 {
			s.engines[w].ProcessHashed(batch, recs)
			s.push[w] = recs[:0]
		}
	}
}

// Engines exposes the per-worker engines for post-run inspection. Do not
// call while Run is in flight.
func (s *System) Engines() []*core.Engine { return s.engines }

// Each calls fn for every live flow across the workers, worker by worker
// in each engine's own Each order. Workers never share flows (the shard
// policy maps a flow to one worker), so concatenation is exact. The
// pointer is valid only during the call.
func (s *System) Each(fn func(*wsaf.Entry)) {
	for _, eng := range s.engines {
		eng.Each(fn)
	}
}

// MergedSnapshot copies out every live flow, in Each's order.
func (s *System) MergedSnapshot() []wsaf.Entry {
	var out []wsaf.Entry
	s.Each(func(en *wsaf.Entry) { out = append(out, *en) })
	return out
}

// TotalRegulation reports packets seen and emissions across all workers —
// the system-wide regulation rate.
func (s *System) TotalRegulation() (packets, emissions uint64) {
	for _, eng := range s.engines {
		packets += eng.Regulator().Packets()
		emissions += eng.Regulator().Emissions()
	}
	return packets, emissions
}
