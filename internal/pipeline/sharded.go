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
// There is no manager. Each worker reads bursts from the source — its own
// stripe when the source can be split, one mutex-guarded turn at a time
// when it cannot (trace.Share) — hashes every packet once, keeps the
// packets its shard owns, and stages the rest into per-destination SPSC
// rings. Cross-shard packets carry their hash across the ring, so the
// receiving engine never re-hashes. No goroutine touches every packet: a
// shared source serializes only its own read and parse, never the hash,
// the shard or the exchange.
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
	var parts []trace.Source
	if sp, ok := src.(trace.SplittableSource); ok {
		parts = sp.Split(nw)
	} else {
		parts = trace.Share(src, nw)
	}

	workers := make([]*shardWorker, nw)
	for i := 0; i < nw; i++ {
		w := &shardWorker{
			id:        i,
			sys:       s,
			eng:       s.engines[i],
			part:      parts[i],
			in:        s.inbound(i),
			out:       s.rings[i],
			outBuf:    make([][]hpkt, nw),
			popBuf:    make([]hpkt, s.batch),
			readBuf:   make([]packet.Packet, s.batch),
			drops:     make([]uint64, nw),
			counter:   s.workerPackets[i],
			dropCount: s.workerDropped[i],
			ctx:       ctx,
			yield:     nw > runtime.NumCPU(),
		}
		w.local.pkts = make([]packet.Packet, 0, s.batch)
		w.local.hashes = make([]uint64, 0, s.batch)
		for _, r := range w.in {
			r.reopen() // a run leaves its lanes closed, drained and released
		}
		for t := range w.outBuf {
			if t != i {
				w.outBuf[t] = make([]hpkt, 0, outStage)
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
			r.release()
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

// outStage is the per-destination staging buffer: cross-shard packets
// accumulate here so a ring push publishes a run of packets with one
// atomic store instead of one per packet. Flushed at every burst end, so
// staging never delays a packet by more than one read burst.
const outStage = 64

// shardWorker is one shared-nothing worker: reader, sharder, and engine
// owner in a single goroutine.
type shardWorker struct {
	id   int
	sys  *System
	eng  *core.Engine
	part trace.Source

	in     []*ring  // inbound lanes: packets the other workers ingested for us
	out    []*ring  // out[t]: our lane to worker t (nil for t==id)
	outBuf [][]hpkt // staging per destination

	local   workBatch // packets this shard owns, pending a ProcessBatchHashed
	popBuf  []hpkt
	readBuf []packet.Packet

	packets   uint64
	bytes     uint64
	busy      time.Duration
	blocked   time.Duration // time yielded away inside busy windows (full-ring waits)
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
			r0 := time.Now()
			n, err := w.part.NextBatch(w.readBuf)
			read = time.Since(r0)
			if n > 0 {
				did = true
				w.ingest(w.readBuf[:n])
			}
			w.cancelled = w.ctx.Err() != nil
			if err != nil || w.cancelled {
				if err != nil && !errors.Is(err, io.EOF) {
					w.err = err
				}
				srcDone = true
				// Push staged leftovers, then close our lanes: consumers
				// drain what is buffered and see drained() afterwards.
				for t := range w.outBuf {
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
				// in local is the final partial batch.
				if len(w.local.pkts) > 0 {
					t1 := time.Now()
					w.process()
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
	w.eng.FlushTelemetry()
}

// ingest hashes and shards one read burst. Own packets accumulate in
// local; foreign packets stage per destination and flush at burst end.
//
//im:hotpath
func (w *shardWorker) ingest(pkts []packet.Packet) {
	nw := len(w.sys.engines)
	seed := w.sys.hashSeed
	policy := w.sys.policy
	for i := range pkts {
		p := &pkts[i]
		h := p.Key.Hash64(seed)
		t := policy(h, p, nw)
		if t == w.id {
			w.local.pkts = append(w.local.pkts, *p)
			w.local.hashes = append(w.local.hashes, h)
			if len(w.local.pkts) >= w.sys.batch {
				w.process()
			}
		} else {
			w.outBuf[t] = append(w.outBuf[t], hpkt{p: *p, h: h})
			if len(w.outBuf[t]) >= outStage {
				w.flushOut(t)
			}
		}
	}
	for t := range w.outBuf {
		if w.out[t] != nil && len(w.outBuf[t]) > 0 {
			w.flushOut(t)
		}
	}
}

// flushOut publishes destination t's staged packets. When the ring is
// full: lossless mode keeps draining our own inbound lanes (so the
// blocked cycle always makes progress — the classic two-workers-pushing-
// at-each-other deadlock resolves because both drain while they wait);
// DropWhenFull discards the remainder, counted against the destination.
func (w *shardWorker) flushOut(t int) {
	b := w.outBuf[t]
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
				w.dropBytes += uint64(b[j].p.Len)
			}
			// Published on the *producer's* shard (single-writer rule);
			// Report.Dropped still attributes to the destination.
			w.dropCount.Add(n)
			break
		}
		w.drainIn()
		// The wait for ring space runs inside the caller's busy window;
		// time handed to other goroutines here is their work, not ours.
		//im:allow hotalloc — blocked-time stamp on the ring-full wait, not per-packet
		g0 := time.Now()
		runtime.Gosched()
		//im:allow hotalloc — paired with the start stamp above
		w.blocked += time.Since(g0)
	}
	w.outBuf[t] = b[:0]
}

// drainIn pops every inbound lane into local, processing full batches as
// they form. Reports whether any packet arrived.
//
//im:hotpath
func (w *shardWorker) drainIn() bool {
	did := false
	for _, r := range w.in {
		for {
			n := r.popBatch(w.popBuf)
			if n == 0 {
				break
			}
			did = true
			for i := 0; i < n; i++ {
				hp := &w.popBuf[i]
				w.local.pkts = append(w.local.pkts, hp.p)
				w.local.hashes = append(w.local.hashes, hp.h)
				if len(w.local.pkts) >= w.sys.batch {
					w.process()
				}
			}
			if n < len(w.popBuf) {
				break
			}
		}
	}
	return did
}

// process runs the engine over the accumulated local batch.
func (w *shardWorker) process() {
	pkts := w.local.pkts
	for i := range pkts {
		w.bytes += uint64(pkts[i].Len)
	}
	w.packets += uint64(len(pkts))
	w.eng.ProcessBatchHashed(pkts, w.local.hashes)
	w.counter.Set(w.packets)
	w.local.pkts = pkts[:0]
	w.local.hashes = w.local.hashes[:0]
}
