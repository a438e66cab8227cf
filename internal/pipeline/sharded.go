package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"instameasure/internal/core"
	"instameasure/internal/packet"
	"instameasure/internal/telemetry"
	"instameasure/internal/trace"
)

// Run drains src through the pipeline and returns once every packet has
// been processed and all workers have exited. Runs may repeat: each starts
// on the state the last one left, so consecutive runs over consecutive
// slices of a trace measure what one run over the whole trace would (to
// the bit with Workers: 1 and no hot cache), and the end of a run is a
// barrier at which the engines may be read, cut and committed.
func (s *System) Run(src trace.Source) (Report, error) {
	return s.RunContext(context.Background(), src)
}

// RunContext is Run with cancellation: when ctx is cancelled the workers
// stop reading the source, flush what they staged, and drain what was
// already exchanged. The report covers the packets read before
// cancellation and the returned error wraps ctx.Err().
//
// There is no manager. Each worker reads bursts from the source — chunks
// it claims in turn when the source can be split, one mutex-guarded turn
// at a time when it cannot (trace.Share) — hashes every packet once, keeps
// the records of the packets its shard owns, and stages the rest into
// per-destination SPSC rings. No packet is copied on the way: a split
// source is read in place, a shared one straight into the run's arena, and what travels is a 16-byte core.Hashed record whose I
// indexes that base, so the receiving engine neither re-hashes nor reads
// a copy. No goroutine touches every packet: a shared source serializes
// only its own read and parse, never the hash, the shard or the exchange.
//
// Per-engine packet order is not deterministic with more than one worker:
// a worker interleaves its own reads with ring arrivals as scheduling
// dictates. Flow totals and conservation are exact regardless (each packet
// is processed exactly once, on the worker its shard names); only the
// sketches' packet-order-dependent randomness varies run to run, within
// the same accuracy envelope. A run that must be bit-reproducible uses
// Workers: 1 (see the package doc).
func (s *System) RunContext(ctx context.Context, src trace.Source) (Report, error) {
	nw := len(s.engines)
	var base []packet.Packet
	var stripes []*trace.Stripe
	var shared trace.Source
	// A shared run's arena: per worker, slots of one burst each (see
	// Config.QueueDepth).
	slots := s.cfg.QueueDepth/s.batch + 2
	if sp, ok := src.(trace.SplittableSource); ok {
		base, stripes = sp.Split(nw)
	} else {
		shared = trace.Share(src)
		base = make([]packet.Packet, nw*slots*s.batch)
	}

	workers := make([]*shardWorker, nw)
	for i := 0; i < nw; i++ {
		w := &shardWorker{
			id:        i,
			sys:       s,
			eng:       s.engines[i],
			base:      base,
			shared:    shared,
			in:        s.inbound(i),
			out:       s.rings[i],
			stage:     make([][]core.Hashed, nw),
			drops:     make([]uint64, nw),
			counter:   s.workerPackets[i],
			dropCount: s.workerDropped[i],
			ctx:       ctx,
			yield:     nw > runtime.NumCPU(),
		}
		if shared == nil {
			w.stripe = stripes[i]
		} else {
			w.marks = make([][]uint64, slots)
			for k := range w.marks {
				w.marks[k] = make([]uint64, nw)
			}
			w.pos = i * slots * s.batch
			w.end = w.pos + s.batch
		}
		for _, r := range w.in {
			r.reopen() // a run leaves its lanes closed, drained and released
		}
		for t := range w.stage {
			if t == i {
				w.stage[t] = make([]core.Hashed, 0, s.batch)
			} else {
				w.stage[t] = make([]core.Hashed, 0, outStage)
			}
		}
		workers[i] = w
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	wg.Wait()

	report := Report{
		PerWorker: make([]uint64, nw),
		BusyTime:  make([]time.Duration, nw),
		Queued:    make([]uint64, nw),
		Dropped:   make([]uint64, nw),
	}
	var err error
	cancelled := false
	for i, w := range workers {
		// Packets/Bytes count everything read from the source: processed
		// plus dropped.
		report.Packets += w.packets
		report.Bytes += w.bytes + w.dropBytes
		report.PerWorker[i] = w.packets
		report.BusyTime[i] = max(w.busy-w.blocked, 0)
		report.Queued[i] = w.packets
		for t, d := range w.drops {
			report.Dropped[t] += d
			report.Packets += d
		}
		if err == nil && w.err != nil {
			err = w.err
		}
		cancelled = cancelled || w.cancelled
		for _, r := range w.in {
			r.free()
		}
	}
	report.WallTime = time.Since(start)

	if cancelled {
		return report, fmt.Errorf("pipeline cancelled: %w", ctx.Err())
	}
	if err != nil {
		return report, fmt.Errorf("pipeline source: %w", err)
	}
	return report, nil
}

// outStage is the per-destination staging buffer: cross-shard records
// accumulate here so a ring push publishes a run of records with one
// atomic store instead of one per packet. Flushed at every burst end, so
// staging never delays a packet by more than one read burst.
const outStage = 64

// shardWorker is one shared-nothing worker: reader, sharder, and engine
// owner in a single goroutine.
type shardWorker struct {
	id  int
	sys *System
	eng *core.Engine
	// base is the run's packet base, every record's I an index into it:
	// the split trace, or the shared run's arena.
	base   []packet.Packet
	stripe *trace.Stripe // split runs: this worker's part of base
	shared trace.Source  // shared runs: the handle all workers read

	// A shared run reads into this worker's region of the arena, a slot of
	// one burst at a time: base[pos:end] is what is left of the current
	// slot. A slot is reused only once every record read into it has been
	// processed — the ones this shard owns by this worker, the others by
	// the workers they were pushed to, which the lanes' head cursors tell:
	// marks[k][t] is lane t's tail after slot k's last push.
	pos, end int
	slot     int
	marks    [][]uint64

	in  []*ring // inbound lanes: records the other workers read for us
	out []*ring // out[t]: our lane to worker t (nil for t==id)
	// stage[t] holds the records bound for worker t: our own (t == id)
	// pending a process, a burst at most; the others pending a push,
	// outStage at most. Each is flushed when full, so its capacity is its
	// limit.
	stage [][]core.Hashed

	packets   uint64
	bytes     uint64
	busy      time.Duration
	blocked   time.Duration // time yielded away inside busy windows (waits on other workers)
	drops     []uint64      // drops[t]: packets owned by t discarded at a full ring
	dropBytes uint64
	err       error

	// yield makes the worker release the CPU at every loop top. With more
	// workers than cores the scheduler would otherwise preempt a worker
	// mid-burst and its busy-time window would absorb the other workers'
	// whole time slices, poisoning the per-core model AggregateMPPS is
	// built on; yielding at the window boundary keeps windows clean (a
	// freshly scheduled goroutine isn't preempted for ~10ms, far longer
	// than one burst).
	yield     bool
	cancelled bool // this worker saw ctx cancelled and stopped reading

	counter   telemetry.CounterShard
	dropCount telemetry.CounterShard
	ctx       context.Context // the run's; polled once per burst
}

func (w *shardWorker) run() {
	bytes0 := w.eng.Bytes() // the run's bytes are the engine's, counted once
	srcDone := false
	for {
		if w.yield {
			runtime.Gosched()
		}
		t0 := time.Now()
		did := w.drainIn()

		// The source read is timed apart and kept out of busy: a paced
		// source sleeps in it and a shared one waits its turn, and neither
		// is measurement work.
		var read time.Duration
		if !srcDone {
			if w.shared != nil && w.pos == w.end {
				w.nextSlot()
			}
			r0 := time.Now()
			lo, hi, err := w.read()
			read = time.Since(r0)
			if hi > lo {
				did = true
				w.ingest(lo, hi)
			}
			w.cancelled = w.ctx.Err() != nil
			if err != nil || w.cancelled {
				if err != nil && !errors.Is(err, io.EOF) {
					w.err = err
				}
				srcDone = true
				// Push staged leftovers, then close our lanes: consumers
				// drain what is buffered and see drained() afterwards.
				for t := range w.stage {
					if w.out[t] != nil {
						w.flushOut(t)
						w.out[t].close()
					}
				}
			}
		}
		if did {
			w.busy += time.Since(t0) - read
		}

		if srcDone {
			alive := false
			for _, r := range w.in {
				if !r.drained() {
					alive = true
					break
				}
			}
			if !alive {
				// Producers are done and every lane is empty: whatever is
				// staged for us is the final partial batch.
				if len(w.stage[w.id]) > 0 {
					t1 := time.Now()
					w.processOwn()
					w.busy += time.Since(t1)
				}
				break
			}
		}
		if !did {
			// Nothing to do this pass — yield instead of burning the CPU
			// other workers need (essential on small hosts).
			runtime.Gosched()
		}
	}
	w.bytes = w.eng.Bytes() - bytes0 // Bytes flushes the engine's telemetry
}

// read takes the next burst, base[lo:hi]: a span of the stripe, or what
// the shared source delivers into the current arena slot.
func (w *shardWorker) read() (lo, hi int, err error) {
	if w.shared == nil {
		if lo, hi = w.stripe.Next(w.sys.batch); lo == hi {
			err = io.EOF
		}
		return lo, hi, err
	}
	n, err := w.shared.NextBatch(w.base[w.pos:w.end])
	lo, w.pos = w.pos, w.pos+n
	return lo, w.pos, err
}

// nextSlot marks the slot just filled and readies the next one in turn,
// waiting until no record still references its packets.
func (w *shardWorker) nextSlot() {
	for t, r := range w.out {
		if r != nil {
			w.marks[w.slot][t] = r.tail.Load()
		}
	}
	w.slot = (w.slot + 1) % len(w.marks)
	w.pos = w.id*len(w.marks)*w.sys.batch + w.slot*w.sys.batch
	w.end = w.pos + w.sys.batch
	// Own records are processed in order, so the oldest tells.
	if own := w.stage[w.id]; len(own) > 0 && int(own[0].I) >= w.pos && int(own[0].I) < w.end {
		w.processOwn()
	}
	for t, r := range w.out {
		for r != nil && r.head.Load() < w.marks[w.slot][t] {
			w.wait()
		}
	}
}

// ingest hashes and shards base[lo:hi], one read burst: every record is
// staged for its worker, ours included, with no branch on whose it is.
// Foreign stages also flush at burst end.
//
//im:hotpath
func (w *shardWorker) ingest(lo, hi int) {
	nw := len(w.sys.engines)
	seed := w.sys.hashSeed
	policy := w.sys.policy
	for i := lo; i < hi; i++ {
		p := &w.base[i]
		h := p.Key.Hash64(seed)
		t := policy(h, p, nw)
		b := &w.stage[t]
		*b = append(*b, core.Hashed{H: h, Len: p.Len, I: uint32(i)})
		if len(*b) == cap(*b) {
			if t == w.id {
				w.processOwn()
			} else {
				w.flushOut(t)
			}
		}
	}
	for t := range w.stage {
		if w.out[t] != nil && len(w.stage[t]) > 0 {
			w.flushOut(t)
		}
	}
}

// flushOut publishes destination t's staged records. When the ring is
// full: lossless mode waits, draining our own inbound lanes meanwhile (so
// the blocked cycle always makes progress — the classic
// two-workers-pushing-at-each-other deadlock resolves because both drain
// while they wait); DropWhenFull discards the remainder, counted against
// the destination.
func (w *shardWorker) flushOut(t int) {
	b := w.stage[t]
	r := w.out[t]
	i := 0
	for i < len(b) {
		i += r.pushBatch(b[i:])
		if i >= len(b) {
			break
		}
		if w.sys.cfg.DropWhenFull {
			n := uint64(len(b) - i)
			w.drops[t] += n
			for j := i; j < len(b); j++ {
				w.dropBytes += uint64(b[j].Len)
			}
			// Published on the *producer's* shard (single-writer rule);
			// Report.Dropped still attributes to the destination.
			w.dropCount.Add(n)
			break
		}
		w.wait()
	}
	w.stage[t] = b[:0]
}

// wait is one round of waiting on another worker (for ring space, or for
// an arena slot's release): drain our own inbound lanes, so a worker that
// waits on us makes progress, then yield. It runs inside the caller's busy
// window; time handed to other goroutines is their work, not ours.
func (w *shardWorker) wait() {
	w.drainIn()
	//im:allow hotpath — blocked-time stamp on a wait, not per-packet
	g0 := time.Now()
	runtime.Gosched()
	//im:allow hotpath — paired with the start stamp above
	w.blocked += time.Since(g0)
}

// drainIn processes the records on every inbound lane where they lie,
// up to a burst at a time, releasing each run once the engine is done with
// it. Reports whether any record arrived.
//
//im:hotpath
func (w *shardWorker) drainIn() bool {
	did := false
	for _, r := range w.in {
		for {
			recs := r.peek(w.sys.batch)
			if len(recs) == 0 {
				break
			}
			did = true
			w.process(recs)
			r.release(len(recs))
			if len(recs) < w.sys.batch {
				break
			}
		}
	}
	return did
}

// processOwn runs the engine over the records this worker read for its
// own shard.
func (w *shardWorker) processOwn() {
	w.process(w.stage[w.id])
	w.stage[w.id] = w.stage[w.id][:0]
}

// process runs the engine over one burst of records.
//
//im:hotpath
func (w *shardWorker) process(recs []core.Hashed) {
	w.packets += uint64(len(recs))
	w.eng.ProcessHashed(w.base, recs)
	w.counter.Set(w.packets)
}
