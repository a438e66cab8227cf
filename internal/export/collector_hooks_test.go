package export

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instameasure/internal/telemetry"
)

// TestCollectorSlowSinkDoesNotBlockQueries pins the lock-free-callback
// contract of Collector.deliver: sinks and hooks run OUTSIDE the collector
// lock, so a stalled downstream (a wedged epoch store, a slow fleet
// aggregator) must not block Stats or a Merge fed by onBatch — or,
// transitively, other connections' batches. Run under -race by the
// fleet-smoke target.
func TestCollectorSlowSinkDoesNotBlockQueries(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var merged Merge
	coll, err := NewCollector("127.0.0.1:0", merged.Add)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	var once sync.Once
	coll.SetSink(func(b Batch) {
		once.Do(func() { close(entered) })
		<-release // wedge the sink until the test has probed the queries
	})
	var hookCalls atomic.Int64
	coll.AddHook(func(b Batch) { hookCalls.Add(1) })

	exp, err := Dial(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.Export(Batch{Epoch: 1, Records: []Record{rec(1)}}); err != nil {
		t.Fatal(err)
	}
	<-entered // the batch is merged and the sink is now wedged

	// Every query must complete while the sink sits blocked. A deadline
	// goroutine turns a regression (query stuck on c.mu) into a clean
	// failure instead of a test-suite hang.
	queries := make(chan struct{})
	go func() {
		defer close(queries)
		if _, ok := merged.Lookup(rec(1).Key); !ok {
			t.Error("merged flow not visible while sink blocked")
		}
		if n := len(merged.Flows()); n != 1 {
			t.Errorf("Flows() = %d flows while sink blocked, want 1", n)
		}
		if b, _ := coll.Stats(); b != 1 {
			t.Errorf("Stats() = %d batches while sink blocked, want 1", b)
		}
	}()
	select {
	case <-queries:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("queries blocked behind a slow sink: deliver is holding c.mu across callbacks")
	}

	// A second exporter's batch must also reach the merge: the wedged
	// sink pins only its own connection goroutine.
	exp2, err := Dial(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp2.Close()
	if err := exp2.Export(Batch{Epoch: 2, Records: []Record{rec(2)}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := merged.Lookup(rec(2).Key); return ok })

	close(release)
	waitFor(t, func() bool { return hookCalls.Load() == 2 })
}

// TestCollectorKeepsNoFlowState: a collector serves frames and keeps
// nothing of their flows — 32 frames of 4 096 fresh flows each through a
// collector with only a counting hook leave the live heap where one frame
// left it. A per-flow table kept across frames grows it by ~14 MB.
func TestCollectorKeepsNoFlowState(t *testing.T) {
	const frames, perFrame = 32, 4096
	var served atomic.Int64
	coll, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	coll.AddHook(func(Batch) { served.Add(1) })
	exp, err := Dial(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	recs := make([]Record, perFrame)
	send := func(f int) {
		for i := range recs {
			recs[i] = rec(f*perFrame + i)
		}
		if err := exp.Export(Batch{Epoch: int64(f), Records: recs}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return served.Load() == int64(f+1) })
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	send(0) // warms the exporter's frame buffer and the decode pool
	before := heap()
	for f := 1; f <= frames; f++ {
		send(f)
	}
	if grew := int64(heap()) - int64(before); grew >= 1<<20 {
		t.Errorf("heap in use grew by %d KB over %d frames of fresh flows; want < 1 MB", grew>>10, frames)
	}
}

// TestCollectorHookSeesSite checks that batch hooks observe the decoded
// site ID — the field the fleet aggregator keys its per-site views on.
func TestCollectorHookSeesSite(t *testing.T) {
	var mu sync.Mutex
	sites := map[string]int{}
	coll, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	coll.AddHook(func(b Batch) {
		mu.Lock()
		sites[b.Site]++
		mu.Unlock()
	})

	for _, site := range []string{"edge-1", "edge-2", ""} {
		exp, err := Dial(coll.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.WithSite(site); err != nil {
			t.Fatal(err)
		}
		if err := exp.Export(Batch{Epoch: 1, Records: []Record{rec(1)}}); err != nil {
			t.Fatal(err)
		}
		if err := exp.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return sites["edge-1"] == 1 && sites["edge-2"] == 1 && sites[""] == 1
	})
}

// TestCollectorCountsConnDrops: every connection the collector stops
// serving is counted under the reason it was let go, in the accessor and
// in the labelled registry series; connections cut by Close are not drops.
func TestCollectorCountsConnDrops(t *testing.T) {
	coll, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry("im", 1)
	coll.Instrument(reg)
	coll.frameTimeout.Store(int64(100 * time.Millisecond))

	var frame bytes.Buffer
	if err := WriteBatch(&frame, Batch{Epoch: 1, Records: []Record{rec(1)}}); err != nil {
		t.Fatal(err)
	}
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", coll.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	wait := func(r DropReason, want uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); coll.ConnDrops(r) != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("ConnDrops(%v) = %d, want %d", r, coll.ConnDrops(r), want)
			}
		}
		if got := reg.Value(`im_collector_conn_drops_total{reason="` + r.String() + `"}`); got != float64(want) {
			t.Fatalf("registry series for %v = %v, want %d", r, got, want)
		}
	}

	// A whole frame, then a clean close: end of stream.
	conn := dial()
	conn.Write(frame.Bytes()) //nolint:errcheck // a failed write fails the wait below
	conn.Close()
	wait(DropEOF, 1)

	// A frame with its last payload byte flipped, and a stream cut mid-frame.
	bad := bytes.Clone(frame.Bytes())
	bad[len(bad)-5] ^= 0xFF
	conn = dial()
	conn.Write(bad) //nolint:errcheck
	wait(DropProtocol, 1)
	conn.Close()
	conn = dial()
	conn.Write(frame.Bytes()[:frame.Len()-3]) //nolint:errcheck
	conn.Close()
	wait(DropProtocol, 2)

	// A frame that never completes: the deadline fires.
	conn = dial()
	defer conn.Close()
	conn.Write(frame.Bytes()[:10]) //nolint:errcheck
	wait(DropTimeout, 1)

	// An idle connection interrupted by Close is a shutdown, not a drop.
	idle := dial()
	defer idle.Close()
	coll.frameTimeout.Store(0)
	if b, _ := coll.Stats(); b != 1 {
		t.Fatalf("merged %d batches, want 1", b)
	}
	if err := coll.Close(); err != nil {
		t.Fatal(err)
	}
	if eof, to, proto := coll.ConnDrops(DropEOF), coll.ConnDrops(DropTimeout), coll.ConnDrops(DropProtocol); eof != 1 || to != 1 || proto != 2 {
		t.Fatalf("after Close: eof %d, timeout %d, protocol %d; want 1, 1, 2", eof, to, proto)
	}
}
