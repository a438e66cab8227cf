package pipeline

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"instameasure/internal/core"
	"instameasure/internal/packet"
	"instameasure/internal/trace"
)

// exactCounts tallies ground-truth per-flow packet counts from the trace.
func exactCounts(tr *trace.Trace) map[packet.FlowKey]float64 {
	m := make(map[packet.FlowKey]float64)
	for i := range tr.Packets {
		m[tr.Packets[i].Key]++
	}
	return m
}

func mustSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestShardedConservation: the lossless shared-nothing run processes every
// trace packet exactly once — totals, bytes, and per-worker sums all
// reconcile, with zero drops.
func TestShardedConservation(t *testing.T) {
	tr := testTrace(t, 1500, 120_000)
	var wantBytes uint64
	for i := range tr.Packets {
		wantBytes += uint64(tr.Packets[i].Len)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		cfg := testConfig(workers)
		sys := mustSystem(t, cfg)
		rep, err := sys.Run(tr.Source())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Packets != uint64(len(tr.Packets)) || rep.Bytes != wantBytes {
			t.Errorf("workers=%d: packets/bytes %d/%d, want %d/%d",
				workers, rep.Packets, rep.Bytes, len(tr.Packets), wantBytes)
		}
		var perWorker uint64
		for w := range rep.PerWorker {
			perWorker += rep.PerWorker[w]
			if rep.Dropped[w] != 0 {
				t.Errorf("workers=%d: worker %d dropped %d on the lossless path", workers, w, rep.Dropped[w])
			}
			if rep.Queued[w] != rep.PerWorker[w] {
				t.Errorf("workers=%d: worker %d queued %d != processed %d",
					workers, w, rep.Queued[w], rep.PerWorker[w])
			}
		}
		if perWorker != rep.Packets {
			t.Errorf("workers=%d: per-worker sum %d != packets %d", workers, perWorker, rep.Packets)
		}
		// Telemetry agrees with the report.
		if got := sys.Telemetry().Value("instameasure_worker_packets_total"); got != float64(perWorker) {
			t.Errorf("workers=%d: worker_packets_total = %g, want %d", workers, got, perWorker)
		}
	}
}

// TestStripedAndStreamedEnvelope: a striped trace and the same trace
// streamed from a capture shard identically (same hash, same policy), so
// per-worker loads are bit-equal; only sketch randomness differs with
// arrival order, so per-flow estimates of heavy flows from both must sit
// within the same accuracy envelope of ground truth.
func TestStripedAndStreamedEnvelope(t *testing.T) {
	tr := testTrace(t, 800, 150_000)
	truth := exactCounts(tr)

	run := func(src trace.Source) (*System, Report) {
		t.Helper()
		cfg := testConfig(4)
		cfg.Engine.WSAFEntries = 1 << 12
		sys := mustSystem(t, cfg)
		rep, err := sys.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		return sys, rep
	}
	stSys, stRep := run(tr.Source())
	pcSys, pcRep := run(streamed(t, tr))

	if stRep.Packets != pcRep.Packets || stRep.Bytes != pcRep.Bytes {
		t.Fatalf("totals differ: striped %d/%d, streamed %d/%d",
			stRep.Packets, stRep.Bytes, pcRep.Packets, pcRep.Bytes)
	}
	for w := range stRep.PerWorker {
		if stRep.PerWorker[w] != pcRep.PerWorker[w] {
			t.Errorf("worker %d load: striped %d, streamed %d — shard policy must not depend on the source",
				w, stRep.PerWorker[w], pcRep.PerWorker[w])
		}
	}

	// Accuracy envelope on heavy flows (≥1000 true packets): both runs'
	// WSAF estimates within 30% of truth. The regulator absorbs a flow's
	// early packets, so estimates sit below truth by a bounded margin —
	// one emission's worth (~50 packets plus the residual), which is why
	// the floor is not lower: at 500 packets an unlucky arrival order
	// lands a flow at 0.30–0.34 about one run in fifteen.
	envelope := func(name string, sys *System) int {
		t.Helper()
		est := map[packet.FlowKey]float64{}
		for _, e := range sys.MergedSnapshot() {
			est[e.Key] = e.Pkts
		}
		heavy := 0
		for k, want := range truth {
			if want < 1000 {
				continue
			}
			heavy++
			got, ok := est[k]
			if !ok {
				t.Errorf("%s: heavy flow (%.0f pkts) missing from WSAF", name, want)
				continue
			}
			if relErr := math.Abs(got-want) / want; relErr > 0.30 {
				t.Errorf("%s: heavy flow estimate %.0f vs truth %.0f (rel err %.2f)", name, got, want, relErr)
			}
		}
		return heavy
	}
	if h := envelope("striped", stSys); h == 0 {
		t.Fatal("test trace produced no heavy flows; envelope check vacuous")
	}
	envelope("streamed", pcSys)
}

// TestShardedSingleHashPerPacket witnesses the single-hash invariant across
// the exchange rings: with four workers most packets are ingested by one
// worker and metered by another, and ingest must hash each packet exactly
// once — the hash rides the ring and the batch into the engine.
func TestShardedSingleHashPerPacket(t *testing.T) {
	tr := testTrace(t, 300, 20_000)
	sources(t, tr, func(t *testing.T, src trace.Source) {
		sys := mustSystem(t, testConfig(4))
		packet.SetHashCounting(true)
		rep, err := sys.Run(src)
		hashes := packet.HashCount()
		packet.SetHashCounting(false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Packets != uint64(len(tr.Packets)) {
			t.Fatalf("run ingested %d of %d packets", rep.Packets, len(tr.Packets))
		}
		if hashes != rep.Packets {
			t.Errorf("hash calls = %d for %d packets; sharded ingest must hash exactly once per packet",
				hashes, rep.Packets)
		}
	})
}

// sources runs fn once on the striped trace and once on the same trace
// streamed from a capture through the shared handle.
func sources(t *testing.T, tr *trace.Trace, fn func(t *testing.T, src trace.Source)) {
	t.Run("striped", func(t *testing.T) { fn(t, tr.Source()) })
	t.Run("streamed", func(t *testing.T) { fn(t, streamed(t, tr)) })
}

// TestShardedDropAccounting: with two-slot rings every staged flush of
// cross-shard packets overflows, so the lossy policy must drop at the
// exchange — and the books still reconcile: processed + dropped = offered,
// in the report and in the registry.
func TestShardedDropAccounting(t *testing.T) {
	tr := testTrace(t, 2000, 200_000)
	sources(t, tr, func(t *testing.T, src trace.Source) {
		cfg := testConfig(2)
		cfg.DropWhenFull = true
		cfg.QueueDepth = 2
		sys := mustSystem(t, cfg)
		rep, err := sys.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		var processed, dropped uint64
		for w := range rep.PerWorker {
			processed += rep.PerWorker[w]
			dropped += rep.Dropped[w]
			if rep.Queued[w] != rep.PerWorker[w] {
				t.Errorf("worker %d: queued %d != processed %d", w, rep.Queued[w], rep.PerWorker[w])
			}
		}
		if rep.Packets != uint64(len(tr.Packets)) || processed+dropped != rep.Packets {
			t.Errorf("processed %d + dropped %d, packets %d, trace %d", processed, dropped, rep.Packets, len(tr.Packets))
		}
		if dropped == 0 {
			t.Error("expected drops with two-slot rings; got none")
		}
		reg := sys.Telemetry()
		if got := reg.Value("instameasure_worker_dropped_total"); got != float64(dropped) {
			t.Errorf("worker_dropped_total = %g, want %d", got, dropped)
		}
		if got := reg.Value("instameasure_worker_packets_total"); got != float64(processed) {
			t.Errorf("worker_packets_total = %g, want %d", got, processed)
		}
	})
}

// TestShardedCancellation: cancelling the context stops the workers'
// reads; the run returns promptly with a wrapped ctx error and a report
// covering what was ingested before the cut.
func TestShardedCancellation(t *testing.T) {
	tr := testTrace(t, 1000, 500_000)
	sources(t, tr, func(t *testing.T, src trace.Source) {
		sys := mustSystem(t, testConfig(4))
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rep, err := sys.RunContext(ctx, src)
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want cancellation", err)
		}
		if rep.Packets >= 500_000 {
			t.Errorf("cancelled run still ingested the whole trace (%d packets)", rep.Packets)
		}
		var processed uint64
		for _, n := range rep.PerWorker {
			processed += n
		}
		if processed != rep.Packets {
			t.Errorf("workers processed %d of %d packets read before the cut", processed, rep.Packets)
		}
	})
}

// TestShardedSteadyStateAllocations is the allocation witness of the
// //im:hotpath roots that run only inside Run — the workers' ingest,
// drainIn and process, the rings' pushBatch, peek, release and drained: a
// run reuses its batches, staging buffers and rings, so what it allocates
// is setup, and eight times the packets may cost no more than a few dozen
// objects more (scheduling moves the setup count by about that much).
// 64-record rings fill on every flush and wrap every few bursts; both
// exchange policies run, each from a striped and from a shared source.
func TestShardedSteadyStateAllocations(t *testing.T) {
	small, large := testTrace(t, 2000, 50_000), testTrace(t, 2000, 400_000)
	for _, src := range []struct {
		name string
		open func(testing.TB, *trace.Trace) trace.Source
	}{
		{"striped", func(_ testing.TB, tr *trace.Trace) trace.Source { return tr.Source() }},
		{"streamed", func(t testing.TB, tr *trace.Trace) trace.Source { return streamed(t, tr) }},
	} {
		t.Run(src.name, func(t *testing.T) {
			for _, drop := range []bool{false, true} {
				cfg := testConfig(2)
				cfg.QueueDepth, cfg.DropWhenFull = 64, drop
				runAllocs := func(tr *trace.Trace) uint64 {
					sys := mustSystem(t, cfg)
					src := src.open(t, tr)
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					_, err := sys.Run(src)
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					return after.Mallocs - before.Mallocs
				}
				few, many := runAllocs(small), runAllocs(large)
				if many > few+64 {
					t.Errorf("drop=%v: a run allocated %d objects over %d packets and %d over %d: the count grows with the packets",
						drop, few, len(small.Packets), many, len(large.Packets))
				}
			}
		})
	}
}

// failingSource delivers n packets and then fails, for good.
type failingSource struct {
	inner trace.Source
	n     int
	err   error
}

func (s *failingSource) NextBatch(buf []packet.Packet) (int, error) {
	if s.n == 0 {
		return 0, s.err
	}
	n, err := s.inner.NextBatch(buf[:min(len(buf), s.n)])
	s.n -= n
	return n, err
}

// TestSourceErrorReachesRun: a source that fails mid-stream ends the run
// with its error, and the packets delivered before it are all counted and
// processed.
func TestSourceErrorReachesRun(t *testing.T) {
	tr := testTrace(t, 500, 50_000)
	boom := errors.New("capture torn")
	const good = 12_345 // mid-burst: the last read is a short one
	sys := mustSystem(t, testConfig(3))
	rep, err := sys.Run(&failingSource{inner: tr.Source(), n: good, err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the source's error", err)
	}
	var processed uint64
	for _, n := range rep.PerWorker {
		processed += n
	}
	if rep.Packets != good || processed != good {
		t.Errorf("report %d packets, workers processed %d, want %d", rep.Packets, processed, good)
	}
}

// TestRingProbes: the readiness probe and the queue-depth gauge read the
// exchange rings a run actually uses. Fill one lane directly: the gauge of
// the worker it feeds rises and Saturated fires; drain it and both clear.
// A completed run leaves every lane empty.
func TestRingProbes(t *testing.T) {
	cfg := testConfig(2)
	cfg.QueueDepth = 64
	sys := mustSystem(t, cfg)
	depthOf := func(w string) float64 {
		return sys.Telemetry().Value(`instameasure_worker_queue_depth{worker="` + w + `"}`)
	}
	depth := func() float64 { return depthOf("0") + depthOf("1") }
	if err := sys.Saturated(); err != nil || depth() != 0 {
		t.Fatalf("fresh system: Saturated() = %v, queue depth %g", err, depth())
	}
	lane := sys.rings[0][1]
	fill := make([]core.Hashed, 60) // ≥ 90 % of 64
	if n := lane.pushBatch(fill); n != len(fill) {
		t.Fatalf("pushed %d of %d", n, len(fill))
	}
	if got0, got1 := depthOf("0"), depthOf("1"); got0 != 0 || got1 != 60 {
		t.Errorf("worker_queue_depth = %g / %g with 60 packets buffered for worker 1 alone", got0, got1)
	}
	if err := sys.Saturated(); err == nil {
		t.Error("Saturated() = nil with a lane at 60/64")
	}
	if n := pop(lane, make([]core.Hashed, 64)); n != 60 {
		t.Fatalf("popped %d", n)
	}
	if err := sys.Saturated(); err != nil || depth() != 0 {
		t.Errorf("drained: Saturated() = %v, queue depth %g", err, depth())
	}

	tr := testTrace(t, 500, 40_000)
	if _, err := sys.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Saturated(); err != nil || depth() != 0 {
		t.Errorf("after a run: Saturated() = %v, queue depth %g", err, depth())
	}
	if lane.buf != nil {
		t.Error("a finished run must release its lane buffers")
	}
}

// TestRegistryDoesNotPinSystem: a registry outlives its System whenever the
// process-wide flight recorder instrumented it, and the probes registered
// on it must not drag the engines' tables along — a process that builds a
// System per run would otherwise grow by one System per run.
func TestRegistryDoesNotPinSystem(t *testing.T) {
	tr := testTrace(t, 200, 10_000)
	sys := mustSystem(t, testConfig(2))
	if _, err := sys.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	reg := sys.Telemetry()
	collected := make(chan struct{})
	runtime.SetFinalizer(sys, func(*System) { close(collected) })
	sys = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(reg)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("System still reachable through its registry after 20 collections")
}

// TestHashShardBalancedVsPopcount is the shard-policy satellite. Flow
// sizes are held uniform so the measurement isolates the policy itself
// (on a Zipf trace the elephant flows dominate Imbalance() under any
// flow-affine policy). Popcount of a random 32-bit address is binomial —
// concentrated around 16 — so with 8 workers the residue classes carry
// visibly unequal mass, while HashShard's fixed-point split of the flow
// hash spreads flows near-uniformly. Only the policy differs between
// the two runs.
func TestHashShardBalancedVsPopcount(t *testing.T) {
	const flows, perFlow = 20_000, 10
	pkts := make([]packet.Packet, 0, flows*perFlow)
	rng := uint64(0x5EED1)
	for f := 0; f < flows; f++ {
		// splitmix64 step: deterministic pseudo-random addresses.
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		key := packet.V4Key(uint32(z), uint32(z>>32), uint16(f), 443, packet.ProtoTCP)
		for i := 0; i < perFlow; i++ {
			pkts = append(pkts, packet.Packet{Key: key, Len: 200, TS: int64(f*perFlow + i)})
		}
	}
	tr := trace.FromPackets(pkts)

	run := func(policy HashShardFunc) Report {
		t.Helper()
		cfg := testConfig(8)
		cfg.HashPolicy = policy
		sys := mustSystem(t, cfg)
		rep, err := sys.Run(tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	hash := run(nil) // nil selects HashShard, the default
	pop := run(PopcountShard)

	if hash.Imbalance() >= pop.Imbalance() {
		t.Errorf("HashShard imbalance %.4f not better than popcount %.4f",
			hash.Imbalance(), pop.Imbalance())
	}
	if pop.Imbalance() < 1.10 {
		t.Errorf("popcount imbalance %.4f, expected visible binomial skew", pop.Imbalance())
	}
	if hash.Imbalance() > 1.08 {
		t.Errorf("HashShard imbalance %.4f, expected near-uniform spread", hash.Imbalance())
	}
	t.Logf("imbalance: HashShard %.4f, PopcountShard %.4f", hash.Imbalance(), pop.Imbalance())
}

// TestHashShardRange: the fixed-point scaling maps the full hash space into
// [0, workers) without modulo bias artifacts at the edges.
func TestHashShardRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, h := range []uint64{0, 1, 1 << 31, 1 << 32, ^uint64(0), 0xDEADBEEFCAFEF00D} {
			w := HashShard(h, nil, workers)
			if w < 0 || w >= workers {
				t.Fatalf("HashShard(%#x, %d) = %d out of range", h, workers, w)
			}
		}
		if HashShard(0, nil, workers) != 0 || HashShard(^uint64(0), nil, workers) != workers-1 {
			t.Errorf("workers=%d: extremes must map to first/last worker", workers)
		}
	}
}
