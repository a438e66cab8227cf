package instameasure

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"
	"time"
)

func testTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := GenerateZipfTrace(ZipfTraceConfig{
		Flows: 10_000, TotalPackets: 300_000, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testMeter(t *testing.T) *Meter {
	t.Helper()
	m, err := New(Config{SketchMemoryBytes: 32 << 10, WSAFEntries: 1 << 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{WSAFEntries: 3}); err == nil {
		t.Error("non-power-of-two WSAF must fail")
	}
	if _, err := New(Config{VectorBits: 1}); err == nil {
		t.Error("invalid vector bits must fail")
	}
}

func TestMeterEndToEnd(t *testing.T) {
	tr := testTrace(t)
	m := testMeter(t)
	rep, err := m.Run(tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	n := rep.Packets
	if n != uint64(len(tr.Packets)) {
		t.Fatalf("processed %d packets, want %d", n, len(tr.Packets))
	}

	st := m.Stats()
	if st.Packets != n {
		t.Errorf("Stats.Packets = %d, want %d", st.Packets, n)
	}
	if st.RegulationRate <= 0 || st.RegulationRate > 0.05 {
		t.Errorf("regulation rate %.4f outside (0, 5%%]", st.RegulationRate)
	}
	if st.ActiveFlows == 0 || st.WSAFLoadFactor <= 0 {
		t.Error("no flows reached the WSAF")
	}
	if st.SketchMemoryBytes != 4*(32<<10) {
		t.Errorf("sketch memory = %d, want 128KB", st.SketchMemoryBytes)
	}

	// Large flows must estimate accurately.
	top := tr.TopTruth(50, func(ft *FlowTruth) float64 { return float64(ft.Pkts) })
	for _, k := range top[:10] {
		truth := float64(tr.Truth(k).Pkts)
		pkts, bytes := m.Estimate(k)
		if relErr := math.Abs(pkts-truth) / truth; relErr > 0.15 {
			t.Errorf("flow %v: est %.0f vs truth %.0f (err %.3f)", k, pkts, truth, relErr)
		}
		if bytes <= 0 {
			t.Errorf("flow %v: non-positive byte estimate", k)
		}
	}
}

func TestMeterTopKOrdering(t *testing.T) {
	tr := testTrace(t)
	m := testMeter(t)
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	top := m.TopKPackets(20)
	for i := 1; i < len(top); i++ {
		if top[i].Pkts > top[i-1].Pkts {
			t.Fatal("TopKPackets not sorted descending")
		}
	}
	byBytes := m.TopKBytes(20)
	for i := 1; i < len(byBytes); i++ {
		if byBytes[i].Bytes > byBytes[i-1].Bytes {
			t.Fatal("TopKBytes not sorted descending")
		}
	}
}

func TestMeterLookupAndFlows(t *testing.T) {
	tr := testTrace(t)
	m := testMeter(t)
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	biggest := tr.TopTruth(1, func(ft *FlowTruth) float64 { return float64(ft.Pkts) })[0]
	rec, ok := m.Lookup(biggest)
	if !ok {
		t.Fatal("biggest flow missing from WSAF")
	}
	if rec.Pkts <= 0 || rec.LastUpdate == 0 {
		t.Errorf("lookup record incomplete: %+v", rec)
	}
	if len(m.Flows()) == 0 {
		t.Error("Flows() empty after processing")
	}
}

func TestMeterHeavyHitterCallback(t *testing.T) {
	attack := V4Key(1, 2, 3, 4, ProtoUDP)
	tr, err := InjectFlow(nil, attack, 50_000, 0, 1e9, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := testMeter(t)
	var events []HeavyHitterEvent
	if err := m.OnHeavyHitter(1000, 0, func(ev HeavyHitterEvent) {
		events = append(events, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("heavy-hitter events = %d, want exactly 1 (first crossing only)", len(events))
	}
	if events[0].Key != attack || events[0].Pkts < 1000 {
		t.Errorf("event = %+v", events[0])
	}
}

// TestMeterHeavyHitterWithHotCache is the end-to-end regression for the
// silent-detection bug: with the promotion cache enabled, a heavy flow
// is promoted after its first passthroughs and then counted exclusively
// by the cache — before the fix, OnHeavyHitter never fired because cache
// hits bypassed every pass event.
func TestMeterHeavyHitterWithHotCache(t *testing.T) {
	attack := V4Key(1, 2, 3, 4, ProtoUDP)
	tr, err := InjectFlow(nil, attack, 50_000, 0, 1e9, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{SketchMemoryBytes: 32 << 10, WSAFEntries: 1 << 16,
		HotCacheEntries: 1024, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var events []HeavyHitterEvent
	if err := m.OnHeavyHitter(1000, 0, func(ev HeavyHitterEvent) {
		events = append(events, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.HotCacheHits == 0 {
		t.Fatal("attack flow never hit the cache; the scenario lost its point")
	}
	if len(events) != 1 {
		t.Fatalf("heavy-hitter events = %d, want exactly 1 (first crossing only)", len(events))
	}
	if events[0].Key != attack || events[0].Pkts < 1000 {
		t.Errorf("event = %+v", events[0])
	}
}

func TestMeterHeavyHitterValidation(t *testing.T) {
	m := testMeter(t)
	if err := m.OnHeavyHitter(0, 0, nil); err == nil {
		t.Error("zero thresholds must fail")
	}
}

func TestMeterReset(t *testing.T) {
	tr := testTrace(t)
	m := testMeter(t)
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	st := m.Stats()
	if st.Packets != 0 || st.ActiveFlows != 0 {
		t.Error("Reset must clear state")
	}
}

func TestClusterEndToEnd(t *testing.T) {
	tr := testTrace(t)
	cluster, err := NewCluster(ClusterConfig{
		Workers: 3,
		Meter:   Config{SketchMemoryBytes: 16 << 10, WSAFEntries: 1 << 14, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cluster.Run(tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets != uint64(len(tr.Packets)) {
		t.Errorf("cluster processed %d, want %d", rep.Packets, len(tr.Packets))
	}
	if len(rep.PerWorker) != 3 {
		t.Errorf("PerWorker len = %d, want 3", len(rep.PerWorker))
	}
	if rep.RegulationRate <= 0 || rep.RegulationRate > 0.05 {
		t.Errorf("cluster regulation rate %.4f", rep.RegulationRate)
	}
	top := cluster.TopKPackets(5)
	if len(top) != 5 {
		t.Fatalf("cluster TopK len = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Pkts > top[i-1].Pkts {
			t.Fatal("cluster TopK not sorted")
		}
	}
	if len(cluster.Flows()) == 0 {
		t.Error("cluster Flows() empty")
	}

	// Snapshot export must work from a cluster too (the CLI's -snapshot
	// flag in -workers mode): merged records plus summed stats trailer,
	// readable back through the public snapshot reader.
	var buf bytes.Buffer
	if err := cluster.ExportSnapshot(&buf, int64(rep.Packets)); err != nil {
		t.Fatal(err)
	}
	info, err := ReadSnapshotDetail(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != int64(rep.Packets) || !info.HasStats {
		t.Errorf("snapshot epoch=%d hasStats=%v, want epoch=%d with stats", info.Epoch, info.HasStats, rep.Packets)
	}
	if len(info.Records) != len(cluster.Flows()) {
		t.Errorf("snapshot carries %d records, cluster has %d flows", len(info.Records), len(cluster.Flows()))
	}
	var inserts uint64
	for _, eng := range cluster.sys.Engines() {
		inserts += eng.Table().Stats().Inserts
	}
	if info.Stats.Inserts != inserts {
		t.Errorf("trailer inserts = %d, want sum across workers %d", info.Stats.Inserts, inserts)
	}
}

// TestClusterShardPolicies: both policies conserve packets, and they
// produce different worker loads on the same trace — i.e. the knob is
// actually wired through to the pipeline.
func TestClusterShardPolicies(t *testing.T) {
	tr := testTrace(t)
	run := func(p ShardPolicy) ClusterReport {
		t.Helper()
		cluster, err := NewCluster(ClusterConfig{
			Workers: 4,
			Shard:   p,
			Meter:   Config{SketchMemoryBytes: 16 << 10, WSAFEntries: 1 << 14, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cluster.Run(tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Packets != uint64(len(tr.Packets)) {
			t.Errorf("policy %d processed %d packets, want %d", p, rep.Packets, len(tr.Packets))
		}
		return rep
	}
	byHash := run(ShardByHash)
	byPop := run(ShardByPopcount)
	same := true
	for w := range byHash.PerWorker {
		if byHash.PerWorker[w] != byPop.PerWorker[w] {
			same = false
		}
	}
	if same {
		t.Error("hash and popcount policies split the trace identically; knob not wired")
	}
}

func TestPcapRoundTripThroughPublicAPI(t *testing.T) {
	tr, err := GenerateZipfTrace(ZipfTraceConfig{Flows: 200, TotalPackets: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flows() != tr.Flows() || len(got.Packets) != len(tr.Packets) {
		t.Errorf("round trip: %d/%d flows, %d/%d packets",
			got.Flows(), tr.Flows(), len(got.Packets), len(tr.Packets))
	}
}

// TestOpenPcapStreamLiveness: a live capture's first packet comes back as
// soon as its record has arrived, while the writer keeps the pipe open,
// from a read with room for the pipeline's whole burst — a reader that
// waited for a whole block of bytes, or for a full burst, would hang here.
func TestOpenPcapStreamLiveness(t *testing.T) {
	tr, err := GenerateZipfTrace(ZipfTraceConfig{Flows: 10, TotalPackets: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var capture bytes.Buffer
	if err := WritePcap(&capture, &Trace{Packets: tr.Packets[:1]}, 0); err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	defer pw.Close() // unblocks a reader still waiting when the test fails
	go func() { _, _ = pw.Write(capture.Bytes()) }()

	got := make(chan error, 1)
	go func() {
		s, err := OpenPcapStream(pr)
		if err == nil {
			buf := make([]Packet, 256)
			var n int
			if n, err = s.NextBatch(buf); err == nil && (n != 1 || buf[0] != tr.Packets[0]) {
				err = fmt.Errorf("%d packets, first %+v; want 1, %+v", n, buf[0], tr.Packets[0])
			}
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("no packet 1 s after its record was written to an open pipe")
	}
}

func TestDiurnalTraceGeneration(t *testing.T) {
	tr, err := GenerateDiurnalTrace(DiurnalTraceConfig{Hours: 6, TotalPackets: 20_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) == 0 || tr.Flows() == 0 {
		t.Error("empty diurnal trace")
	}
}

func TestDeterminism(t *testing.T) {
	tr := testTrace(t)
	run := func() []FlowRecord {
		m := testMeter(t)
		if _, err := m.Run(tr.Source()); err != nil {
			t.Fatal(err)
		}
		return m.TopKPackets(10)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed meters disagree at rank %d", i)
		}
	}
}

func TestDistinctFlowsEstimate(t *testing.T) {
	tr := testTrace(t) // 10k flows
	m := testMeter(t)
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	est := m.Stats().DistinctFlowsEst
	truth := float64(tr.Flows())
	if relErr := math.Abs(est-truth) / truth; relErr > 0.08 {
		t.Errorf("distinct flows est %.0f vs %d flows (rel err %.3f)", est, tr.Flows(), relErr)
	}
}
