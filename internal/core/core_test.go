package core

import (
	"math"
	"testing"

	"instameasure/internal/packet"
	"instameasure/internal/trace"
	"instameasure/internal/wsaf"
)

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.SketchMemoryBytes == 0 {
		cfg.SketchMemoryBytes = 8 << 10
	}
	if cfg.WSAFEntries == 0 {
		cfg.WSAFEntries = 1 << 14
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestNewValidatesSubsystems(t *testing.T) {
	if _, err := New(Config{VectorBits: 1}); err == nil {
		t.Error("bad vector bits must fail")
	}
	if _, err := New(Config{WSAFEntries: 3}); err == nil {
		t.Error("non-power-of-two WSAF must fail")
	}
}

func TestDefaults(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Table().Capacity(); got != 1<<20 {
		t.Errorf("default WSAF capacity = %d, want 2^20", got)
	}
	if got := e.SketchMemoryBytes(); got != 4*(32<<10) {
		t.Errorf("default sketch memory = %d, want 128KB", got)
	}
	if got := e.Table().MemoryBytes(); got != (1<<20)*wsaf.EntryBytes {
		t.Errorf("WSAF memory = %d, want 33MB (2^20 × 33B)", got)
	}
}

func TestSingleFlowEndToEnd(t *testing.T) {
	e := testEngine(t, Config{Seed: 3})
	key := packet.V4Key(1, 2, 3, 4, packet.ProtoTCP)
	const n = 50_000
	const pktLen = 500
	for i := 0; i < n; i++ {
		e.Process(packet.Packet{Key: key, Len: pktLen, TS: int64(i)})
	}
	pkts, bytes := e.Estimate(key)
	if relErr := math.Abs(pkts-n) / n; relErr > 0.1 {
		t.Errorf("packet estimate %.0f, rel err %.3f", pkts, relErr)
	}
	trueBytes := float64(n * pktLen)
	if relErr := math.Abs(bytes-trueBytes) / trueBytes; relErr > 0.1 {
		t.Errorf("byte estimate %.0f, rel err %.3f", bytes, relErr)
	}
	entry, ok := e.Lookup(key)
	if !ok {
		t.Fatal("50k-packet flow missing from WSAF")
	}
	if entry.Pkts <= 0 || entry.Pkts > pkts {
		t.Errorf("WSAF pkts %v inconsistent with estimate %v", entry.Pkts, pkts)
	}
}

func TestMiceRetained(t *testing.T) {
	e := testEngine(t, Config{Seed: 5})
	// 500 three-packet mice: none should appear in the WSAF.
	for f := 0; f < 500; f++ {
		key := packet.V4Key(uint32(f), 1, 1, 1, packet.ProtoUDP)
		for p := 0; p < 3; p++ {
			e.Process(packet.Packet{Key: key, Len: 64, TS: int64(f*10 + p)})
		}
	}
	if n := len(e.Snapshot()); n > 5 {
		t.Errorf("%d mice leaked into the WSAF, want ≤5", n)
	}
	// But Estimate still sees their residuals.
	key := packet.V4Key(0, 1, 1, 1, packet.ProtoUDP)
	pkts, _ := e.Estimate(key)
	if pkts <= 0 {
		t.Error("mouse flow must have a positive residual estimate")
	}
}

func TestOnPassFires(t *testing.T) {
	e := testEngine(t, Config{Seed: 7})
	var events []PassEvent
	e.OnPass(func(ev PassEvent) { events = append(events, ev) })

	key := packet.V4Key(1, 1, 1, 1, packet.ProtoTCP)
	for i := 0; i < 20_000; i++ {
		e.Process(packet.Packet{Key: key, Len: 100, TS: int64(i)})
	}
	if len(events) == 0 {
		t.Fatal("no pass events for a 20k-packet flow")
	}
	var prev float64
	for i, ev := range events {
		if ev.Key != key {
			t.Fatalf("event %d has wrong key", i)
		}
		if ev.Pkts <= prev {
			t.Fatalf("event %d: accumulated Pkts %v not increasing (prev %v)", i, ev.Pkts, prev)
		}
		prev = ev.Pkts
		if ev.Est.EstPkts <= 0 {
			t.Fatalf("event %d: non-positive emission", i)
		}
	}
	if events[0].Outcome != wsaf.Inserted {
		t.Errorf("first event outcome = %v, want Inserted", events[0].Outcome)
	}
	for _, ev := range events[1:] {
		if ev.Outcome != wsaf.Updated {
			t.Errorf("later event outcome = %v, want Updated", ev.Outcome)
		}
	}
}

func TestCounters(t *testing.T) {
	e := testEngine(t, Config{Seed: 1})
	key := packet.V4Key(1, 2, 3, 4, packet.ProtoTCP)
	e.Process(packet.Packet{Key: key, Len: 100, TS: 55})
	e.Process(packet.Packet{Key: key, Len: 200, TS: 66})
	if e.Packets() != 2 || e.Bytes() != 300 || e.LastTS() != 66 {
		t.Errorf("counters = %d/%d/%d", e.Packets(), e.Bytes(), e.LastTS())
	}
}

// TestTopK: the snapshot's largest flow by packets and by bytes are the
// right ones when the two rankings differ.
func TestTopK(t *testing.T) {
	e := testEngine(t, Config{Seed: 9})
	// Three flows with clearly separated sizes; small packets for the big
	// flow so packet-top and byte-top differ.
	flows := []struct {
		key  packet.FlowKey
		n    int
		size uint16
	}{
		{packet.V4Key(1, 1, 1, 1, packet.ProtoTCP), 50_000, 64},
		{packet.V4Key(2, 2, 2, 2, packet.ProtoTCP), 20_000, 1500},
		{packet.V4Key(3, 3, 3, 3, packet.ProtoTCP), 5_000, 1500},
	}
	ts := int64(0)
	for round := 0; round < 50_000; round++ {
		for _, f := range flows {
			if round < f.n {
				e.Process(packet.Packet{Key: f.key, Len: f.size, TS: ts})
				ts++
			}
		}
	}
	var topPkts, topBytes wsaf.Entry
	for _, en := range e.Snapshot() {
		if en.Pkts > topPkts.Pkts {
			topPkts = en
		}
		if en.Bytes > topBytes.Bytes {
			topBytes = en
		}
	}
	if topPkts.Key != flows[0].key {
		t.Error("packet Top-1 wrong")
	}
	if topBytes.Key != flows[1].key {
		t.Error("byte Top-1 wrong")
	}
}

func TestZipfTraceAccuracy(t *testing.T) {
	tr, err := trace.GenerateZipf(trace.ZipfConfig{
		Flows: 20_000, TotalPackets: 500_000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, Config{SketchMemoryBytes: 64 << 10, Seed: 2})
	for i := range tr.Packets {
		e.Process(tr.Packets[i])
	}

	// Large flows (1000+ packets) must estimate within 10%.
	var worst float64
	var checked int
	tr.EachTruth(func(k packet.FlowKey, ft *trace.FlowTruth) {
		if ft.Pkts < 1000 {
			return
		}
		checked++
		pkts, _ := e.Estimate(k)
		if relErr := math.Abs(pkts-float64(ft.Pkts)) / float64(ft.Pkts); relErr > worst {
			worst = relErr
		}
	})
	if checked == 0 {
		t.Fatal("no 1000+ packet flows in trace")
	}
	if worst > 0.25 {
		t.Errorf("worst rel err on %d large flows = %.3f", checked, worst)
	}
	// Regulation in the paper's band.
	if rate := e.Regulator().RegulationRate(); rate > 0.05 {
		t.Errorf("regulation rate %.4f above 5%%", rate)
	}
}

func TestReset(t *testing.T) {
	e := testEngine(t, Config{Seed: 1})
	key := packet.V4Key(1, 2, 3, 4, packet.ProtoTCP)
	for i := 0; i < 10_000; i++ {
		e.Process(packet.Packet{Key: key, Len: 100, TS: int64(i)})
	}
	e.Reset()
	if e.Packets() != 0 || e.Bytes() != 0 || e.LastTS() != 0 {
		t.Error("Reset must clear counters")
	}
	if len(e.Snapshot()) != 0 {
		t.Error("Reset must clear the WSAF")
	}
	if pkts, _ := e.Estimate(key); pkts != 0 {
		t.Errorf("estimate after reset = %v, want 0", pkts)
	}
}

func TestDeterministicEngines(t *testing.T) {
	tr, err := trace.GenerateZipf(trace.ZipfConfig{Flows: 500, TotalPackets: 20_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := testEngine(t, Config{Seed: 21})
	b := testEngine(t, Config{Seed: 21})
	for i := range tr.Packets {
		a.Process(tr.Packets[i])
		b.Process(tr.Packets[i])
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("snapshots differ in size: %d vs %d", len(sa), len(sb))
	}
	for _, k := range tr.TopTruth(20, func(ft *trace.FlowTruth) float64 { return float64(ft.Pkts) }) {
		pa, _ := a.Estimate(k)
		pb, _ := b.Estimate(k)
		if pa != pb {
			t.Fatalf("same-seed engines disagree on %v: %v vs %v", k, pa, pb)
		}
	}
}
