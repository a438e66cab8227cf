package instameasure

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"instameasure/internal/wsaf"
)

// unsplittable hides Split: the workers share it, taking turns to read, as
// they do a pcap stream.
type unsplittable struct{ PacketSource }

func workersTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := GenerateZipfTrace(ZipfTraceConfig{Flows: 3_000, TotalPackets: 60_000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func workersMeter(t *testing.T, workers int) *Meter {
	t.Helper()
	m, err := NewCluster(ClusterConfig{Workers: workers,
		Meter: Config{SketchMemoryBytes: 16 << 10, WSAFEntries: 1 << 14, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestConsecutiveRunsMatchOneRun: an epoch is the end of a Run, so Runs
// over consecutive slices of a trace (one of them empty) must measure what
// one Run over the whole trace does — the same packets and bytes, on every
// worker, and every flow on the worker that owns it — on striped and on
// shared sources. With one worker the engine sees the same packets in the
// same order, so the tables, and the snapshot files, are identical to the
// bit. With more, a worker's packet order depends on scheduling (see
// pipeline.System.RunContext), so per-flow estimates are not compared.
func TestConsecutiveRunsMatchOneRun(t *testing.T) {
	tr := workersTrace(t)
	cuts := []int{0, 7_777, 7_777, 7_778, 31_000, len(tr.Packets)}
	for _, workers := range []int{1, 2, 4} {
		for _, shared := range []bool{false, true} {
			source := func(pkts []Packet) PacketSource {
				src := NewTraceFromPackets(pkts).Source()
				if shared {
					return unsplittable{src}
				}
				return src
			}
			one, many := workersMeter(t, workers), workersMeter(t, workers)
			whole, err := one.Run(source(tr.Packets))
			if err != nil {
				t.Fatal(err)
			}
			var pkts, bytesSeen uint64
			perWorker := make([]uint64, workers)
			for i := 1; i < len(cuts); i++ {
				rep, err := many.Run(source(tr.Packets[cuts[i-1]:cuts[i]]))
				if err != nil {
					t.Fatal(err)
				}
				pkts += rep.Packets
				bytesSeen += rep.Bytes
				for w, n := range rep.PerWorker {
					perWorker[w] += n
				}
			}
			if pkts != whole.Packets || bytesSeen != whole.Bytes || !slices.Equal(perWorker, whole.PerWorker) {
				t.Fatalf("%d workers, shared %v: runs saw %d packets / %d bytes / per worker %v; one run %d / %d / %v",
					workers, shared, pkts, bytesSeen, perWorker, whole.Packets, whole.Bytes, whole.PerWorker)
			}
			if a, b := one.Stats(), many.Stats(); a.Packets != b.Packets || a.Bytes != b.Bytes {
				t.Fatalf("%d workers, shared %v: Stats %d / %d bytes after the runs, %d / %d after one", workers, shared,
					b.Packets, b.Bytes, a.Packets, a.Bytes)
			}
			for w, eng := range many.sys.Engines() {
				eng.Each(func(e *wsaf.Entry) {
					if owner := many.sys.ShardOf(e.Key); owner != w {
						t.Fatalf("flow %v on worker %d, owned by %d", e.Key, w, owner)
					}
				})
			}
			if workers > 1 {
				continue
			}
			if !slices.Equal(one.Flows(), many.Flows()) {
				t.Fatalf("shared %v: one worker's flow table differs between one run and several", shared)
			}
			var a, b bytes.Buffer
			if err := one.ExportSnapshot(&a, 1); err != nil {
				t.Fatal(err)
			}
			if err := many.ExportSnapshot(&b, 1); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("shared %v: snapshot after several runs differs from one run's", shared)
			}
		}
	}
}

// TestHeavyHitterOncePerFlowOnWorkers: with detection armed on four
// workers, each flow that crosses the threshold fires exactly once, from
// whichever worker owns it — the callbacks run concurrently, which the
// race detector watches — and the flows that fired are exactly those whose
// WSAF total ends at or above the threshold (the table is large enough
// that nothing is evicted).
func TestHeavyHitterOncePerFlowOnWorkers(t *testing.T) {
	const threshold = 200
	m := workersMeter(t, 4)
	var mu sync.Mutex
	fired := map[FlowKey]int{}
	err := m.OnHeavyHitter(threshold, 0, func(ev HeavyHitterEvent) {
		if ev.ByBytes || ev.Pkts < threshold {
			t.Errorf("event %+v: not a packet crossing of %d", ev, threshold)
		}
		mu.Lock()
		fired[ev.Key]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(workersTrace(t).Source()); err != nil {
		t.Fatal(err)
	}
	heavy := 0
	for _, rec := range m.Flows() {
		if rec.Pkts >= threshold {
			heavy++
			if fired[rec.Key] != 1 {
				t.Errorf("flow %v at %.0f packets fired %d times, want once", rec.Key, rec.Pkts, fired[rec.Key])
			}
		}
	}
	if heavy == 0 || len(fired) != heavy {
		t.Errorf("%d flows fired, %d flows hold at least %d packets", len(fired), heavy, threshold)
	}
	if m.Stats().WSAFEvictions != 0 {
		t.Fatal("the table evicted flows; the fired set is not pinned")
	}
}

// TestPushRoutesToOwner: Process and ProcessBatch on several workers run
// on the caller, each packet in its owner's engine — per-worker totals are
// the shard truth — and Lookup and Estimate find a flow on its owner.
func TestPushRoutesToOwner(t *testing.T) {
	tr := workersTrace(t)
	m := workersMeter(t, 3)
	m.ProcessBatch(tr.Packets[:40_000])
	for _, p := range tr.Packets[40_000:] {
		m.Process(p)
	}
	want := make([]uint64, 3)
	for _, p := range tr.Packets {
		want[m.sys.ShardOf(p.Key)]++
	}
	for w, eng := range m.sys.Engines() {
		if eng.Packets() != want[w] {
			t.Errorf("worker %d measured %d packets, its shard holds %d", w, eng.Packets(), want[w])
		}
	}
	flows := m.Flows()
	if len(flows) == 0 {
		t.Fatal("no flows reached the WSAF")
	}
	for _, rec := range flows {
		got, ok := m.Lookup(rec.Key)
		if !ok || got != rec {
			t.Fatalf("Lookup(%v) = %+v, %v; Flows holds %+v", rec.Key, got, ok, rec)
		}
		if pkts, _ := m.Estimate(rec.Key); pkts < rec.Pkts {
			t.Fatalf("Estimate(%v) = %.0f packets, below its WSAF entry's %.0f", rec.Key, pkts, rec.Pkts)
		}
	}
}
