package pipeline

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"instameasure/internal/core"
	"instameasure/internal/flowhash"
	"instameasure/internal/packet"
	"instameasure/internal/pcap"
	"instameasure/internal/trace"
)

func testTrace(t *testing.T, flows, pkts int) *trace.Trace {
	t.Helper()
	tr, err := trace.GenerateZipf(trace.ZipfConfig{Flows: flows, TotalPackets: pkts, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testConfig(workers int) Config {
	return Config{
		Workers: workers,
		Engine:  core.Config{SketchMemoryBytes: 16 << 10, WSAFEntries: 1 << 14, Seed: 5},
	}
}

func TestPopcountShardStable(t *testing.T) {
	p := packet.Packet{Key: packet.V4Key(0xF0F0F0F0, 1, 2, 3, packet.ProtoTCP)}
	w := PopcountShard(0, &p, 4)
	if w != flowhash.PopCount32(0xF0F0F0F0)%4 {
		t.Errorf("shard = %d, want popcount%%4", w)
	}
	for i := 0; i < 10; i++ {
		if PopcountShard(uint64(i), &p, 4) != w {
			t.Fatal("popcount shard not stable")
		}
	}
}

// unsplittable hides Split: a Source the pipeline must share.
type unsplittable struct{ trace.Source }

// streamed writes tr out as a capture and hands back the stream source over
// it — the non-splittable source the CLI's -pcap streaming path uses.
func streamed(t testing.TB, tr *trace.Trace) *trace.PcapSource {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf, 64); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewPcapSource(r)
}

// sprayShard ignores flow identity: a pure function of the packet (so every
// ingesting worker agrees) that scatters a flow's packets over all workers.
func sprayShard(h uint64, p *packet.Packet, workers int) int {
	return HashShard(flowhash.Mix64(h^uint64(p.TS)), p, workers)
}

// TestSharedSourceMatchesStriped: whether the workers stripe the source or
// take turns on a shared handle (a replay or a pcap stream), every packet
// reaches the worker its shard names — same totals, per-worker loads equal
// to the shard truth, same flows in the merged table.
func TestSharedSourceMatchesStriped(t *testing.T) {
	tr := testTrace(t, 1200, 60_000)
	if _, ok := tr.Source().(trace.SplittableSource); !ok {
		t.Fatal("trace source must be splittable for this test to exercise the striped path")
	}
	run := func(src trace.Source) (*System, Report) {
		t.Helper()
		sys := mustSystem(t, testConfig(3))
		rep, err := sys.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		return sys, rep
	}
	stripedSys, striped := run(tr.Source())
	want := make([]uint64, 3)
	for i := range tr.Packets {
		want[stripedSys.ShardOf(tr.Packets[i].Key)]++
	}
	flows := map[packet.FlowKey]bool{}
	for _, e := range stripedSys.MergedSnapshot() {
		flows[e.Key] = true
	}
	for name, src := range map[string]trace.Source{
		"shared":        unsplittable{tr.Source()},
		"streamed pcap": streamed(t, tr),
	} {
		sys, rep := run(src)
		if rep.Packets != striped.Packets || rep.Bytes != striped.Bytes {
			t.Fatalf("%s: totals %d/%d, striped %d/%d", name, rep.Packets, rep.Bytes, striped.Packets, striped.Bytes)
		}
		for w := range want {
			if rep.PerWorker[w] != want[w] || striped.PerWorker[w] != want[w] {
				t.Errorf("%s: worker %d processed %d (striped %d), shard truth %d",
					name, w, rep.PerWorker[w], striped.PerWorker[w], want[w])
			}
		}
		// Which flows pass the regulator depends on arrival order, so the
		// tables need not be identical — but the heavy flows are in both.
		got := map[packet.FlowKey]bool{}
		for _, e := range sys.MergedSnapshot() {
			got[e.Key] = true
		}
		tr.EachTruth(func(k packet.FlowKey, ft *trace.FlowTruth) {
			if ft.Pkts >= 1000 && (!got[k] || !flows[k]) {
				t.Errorf("%s: heavy flow %v (%d pkts) missing (shared %v, striped %v)", name, k, ft.Pkts, got[k], flows[k])
			}
		})
	}
}

func TestSteadyStateAllocations(t *testing.T) {
	// Buffer recycling regression guard: a full run must not allocate a
	// batch buffer per flush. The bound (1 object per 500 packets) sits
	// between the recycled steady state (~fixed setup cost only) and the
	// old allocate-per-flush behavior (1 per BatchSize=256 packets).
	tr := testTrace(t, 2000, 400_000)
	sys, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	src := tr.Source()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := sys.Run(src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs := after.Mallocs - before.Mallocs
	perPacket := float64(allocs) / float64(rep.Packets)
	if perPacket > 1.0/500 {
		t.Errorf("pipeline allocated %d objects for %d packets (%.5f/packet), want < 0.002/packet",
			allocs, rep.Packets, perPacket)
	}
}

func TestRunProcessesEverything(t *testing.T) {
	tr := testTrace(t, 2000, 50_000)
	for _, workers := range []int{1, 2, 4} {
		sys, err := New(testConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run(tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Packets != uint64(len(tr.Packets)) {
			t.Errorf("workers=%d: report packets = %d, want %d",
				workers, rep.Packets, len(tr.Packets))
		}
		var workerTotal uint64
		for _, n := range rep.PerWorker {
			workerTotal += n
		}
		if workerTotal != rep.Packets {
			t.Errorf("workers=%d: per-worker sum %d != %d", workers, workerTotal, rep.Packets)
		}
		if rep.MPPS() <= 0 {
			t.Errorf("workers=%d: MPPS = %v", workers, rep.MPPS())
		}
	}
}

func TestWorkersSeeDisjointFlows(t *testing.T) {
	tr := testTrace(t, 3000, 60_000)
	sys, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	seen := map[packet.FlowKey]int{}
	for w, eng := range sys.Engines() {
		for _, e := range eng.Snapshot() {
			if prev, dup := seen[e.Key]; dup {
				t.Fatalf("flow %v on workers %d and %d", e.Key, prev, w)
			}
			seen[e.Key] = w
		}
	}
	if len(seen) == 0 {
		t.Fatal("no flows reached any WSAF")
	}
}

func TestMergedSnapshotAccuracy(t *testing.T) {
	tr := testTrace(t, 5000, 200_000)
	sys, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	// Every 1000+ packet flow must be present and accurate in the merged
	// snapshot.
	merged := map[packet.FlowKey]float64{}
	for _, e := range sys.MergedSnapshot() {
		merged[e.Key] = e.Pkts
	}
	var missing, checked int
	tr.EachTruth(func(k packet.FlowKey, ft *trace.FlowTruth) {
		if ft.Pkts < 1000 {
			return
		}
		checked++
		got, ok := merged[k]
		if !ok {
			missing++
			return
		}
		if relErr := math.Abs(got-float64(ft.Pkts)) / float64(ft.Pkts); relErr > 0.25 {
			t.Errorf("flow %v: est %.0f vs truth %d (rel err %.3f)", k, got, ft.Pkts, relErr)
		}
	})
	if checked == 0 {
		t.Fatal("no large flows")
	}
	if missing > 0 {
		t.Errorf("%d of %d large flows missing from merged snapshot", missing, checked)
	}
}

func TestTotalRegulation(t *testing.T) {
	tr := testTrace(t, 2000, 100_000)
	sys, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	pkts, emissions := sys.TotalRegulation()
	if pkts != uint64(len(tr.Packets)) {
		t.Errorf("regulator packets = %d, want %d", pkts, len(tr.Packets))
	}
	rate := float64(emissions) / float64(pkts)
	if rate <= 0 || rate > 0.05 {
		t.Errorf("cluster regulation rate %.4f outside (0, 5%%]", rate)
	}
}

func TestSprayBreaksAffinityButKeepsTotals(t *testing.T) {
	tr := testTrace(t, 1000, 50_000)
	cfg := testConfig(4)
	cfg.HashPolicy = sprayShard
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets != uint64(len(tr.Packets)) {
		t.Errorf("packets = %d, want %d", rep.Packets, len(tr.Packets))
	}
	// Spraying spreads load evenly (binomial noise only).
	mean := float64(rep.Packets) / 4
	for w, n := range rep.PerWorker {
		if math.Abs(float64(n)-mean)/mean > 0.03 {
			t.Errorf("worker %d processed %d, want ≈%.0f", w, n, mean)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	sys, err := New(Config{Engine: core.Config{SketchMemoryBytes: 8 << 10, WSAFEntries: 1 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Workers() != 1 {
		t.Errorf("default workers = %d, want 1", sys.Workers())
	}
}

func TestSingleWorkerMatchesBareEngine(t *testing.T) {
	// A 1-worker pipeline must produce byte-identical estimates to a bare
	// engine with the same seed, because packets arrive in order.
	tr := testTrace(t, 800, 30_000)
	sys, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	bare, err := core.New(core.Config{SketchMemoryBytes: 16 << 10, WSAFEntries: 1 << 14, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		bare.Process(tr.Packets[i])
	}
	pipeEntries := sys.Engines()[0].Snapshot()
	bareEntries := bare.Snapshot()
	if len(pipeEntries) != len(bareEntries) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(pipeEntries), len(bareEntries))
	}
	bareMap := map[packet.FlowKey]float64{}
	for _, e := range bareEntries {
		bareMap[e.Key] = e.Pkts
	}
	for _, e := range pipeEntries {
		if bareMap[e.Key] != e.Pkts {
			t.Fatalf("flow %v: pipeline %v vs bare %v", e.Key, e.Pkts, bareMap[e.Key])
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	tr := testTrace(t, 2000, 100_000)
	sys, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel via a source wrapper after 10k packets, mid-run. The wrapper
	// cannot be split, so the workers share it.
	src := &cancellingSource{inner: tr.Source(), after: 10_000, cancel: cancel}
	rep, err := sys.RunContext(ctx, src)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Packets < 10_000 || rep.Packets >= uint64(len(tr.Packets)) {
		t.Errorf("dispatched %d packets; want partial progress past 10k", rep.Packets)
	}
	// All dispatched packets must have been drained by the workers.
	var processed uint64
	for _, n := range rep.PerWorker {
		processed += n
	}
	if processed != rep.Packets {
		t.Errorf("workers processed %d of %d dispatched", processed, rep.Packets)
	}
}

type cancellingSource struct {
	inner  trace.Source
	after  int
	n      int
	cancel func()
}

func (s *cancellingSource) NextBatch(buf []packet.Packet) (int, error) {
	n, err := s.inner.NextBatch(buf)
	if s.n < s.after && s.n+n >= s.after {
		s.cancel()
	}
	s.n += n
	return n, err
}

// sleepySource blocks in every read, as a paced or a live source does.
type sleepySource struct {
	inner trace.Source
	nap   time.Duration
}

func (s sleepySource) NextBatch(buf []packet.Packet) (int, error) {
	time.Sleep(s.nap)
	return s.inner.NextBatch(buf)
}

// TestBusyTimeExcludesSourceRead: time a worker spends inside the source —
// asleep here — is not measurement work and must stay out of BusyTime, or
// a paced run reads as 100 % utilisation.
func TestBusyTimeExcludesSourceRead(t *testing.T) {
	tr := testTrace(t, 200, 30*256)
	sys := mustSystem(t, testConfig(1))
	rep, err := sys.Run(sleepySource{inner: tr.Source(), nap: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets != uint64(len(tr.Packets)) {
		t.Fatalf("packets = %d, want %d", rep.Packets, len(tr.Packets))
	}
	if rep.WallTime < 30*time.Millisecond {
		t.Fatalf("wall time %v: the source did not block", rep.WallTime)
	}
	if u := rep.Utilization()[0]; u <= 0 || u > 0.5 {
		t.Errorf("utilisation %.2f with a source asleep ~all of the run; busy %v of wall %v", u, rep.BusyTime[0], rep.WallTime)
	}
}
