package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"instameasure/internal/packet"
	"instameasure/internal/pcap"
)

func mkPkt(flow int, ln uint16, ts int64) packet.Packet {
	return packet.Packet{
		Key: packet.V4Key(uint32(flow), uint32(flow)+1, 1000, 80, packet.ProtoTCP),
		Len: ln,
		TS:  ts,
	}
}

func TestNewTraceTruthAccounting(t *testing.T) {
	pkts := []packet.Packet{
		mkPkt(1, 100, 10),
		mkPkt(1, 200, 30),
		mkPkt(2, 50, 20),
	}
	tr := NewTrace(pkts)
	if tr.Flows() != 2 {
		t.Fatalf("Flows = %d, want 2", tr.Flows())
	}
	ft := tr.Truth(pkts[0].Key)
	if ft == nil || ft.Pkts != 2 || ft.Bytes != 300 {
		t.Errorf("flow 1 truth = %+v", ft)
	}
	if ft.FirstTS != 10 || ft.LastTS != 30 {
		t.Errorf("flow 1 timestamps = %d/%d", ft.FirstTS, ft.LastTS)
	}
	if tr.Truth(mkPkt(99, 0, 0).Key) != nil {
		t.Error("truth for absent flow must be nil")
	}
}

func TestTraceSource(t *testing.T) {
	pkts := []packet.Packet{mkPkt(1, 100, 1), mkPkt(2, 100, 2)}
	src := NewTrace(pkts).Source()
	buf := make([]packet.Packet, 1)
	for i := range pkts {
		if n, err := src.NextBatch(buf); n != 1 || err != nil {
			t.Fatalf("read %d: n=%d err=%v", i, n, err)
		}
		if buf[0] != pkts[i] {
			t.Errorf("packet %d mismatch", i)
		}
	}
	if n, err := src.NextBatch(buf); n != 0 || !errors.Is(err, io.EOF) {
		t.Errorf("exhausted source: n=%d err=%v, want EOF", n, err)
	}
}

func TestTopTruth(t *testing.T) {
	pkts := []packet.Packet{
		mkPkt(1, 100, 1), mkPkt(1, 100, 2), mkPkt(1, 100, 3),
		mkPkt(2, 100, 1), mkPkt(2, 100, 2),
		mkPkt(3, 100, 1),
	}
	tr := NewTrace(pkts)
	top := tr.TopTruth(2, func(ft *FlowTruth) float64 { return float64(ft.Pkts) })
	if len(top) != 2 {
		t.Fatalf("TopTruth len = %d", len(top))
	}
	if tr.Truth(top[0]).Pkts != 3 || tr.Truth(top[1]).Pkts != 2 {
		t.Error("TopTruth order wrong")
	}
	all := tr.TopTruth(100, func(ft *FlowTruth) float64 { return float64(ft.Pkts) })
	if len(all) != 3 {
		t.Errorf("TopTruth(100) = %d flows, want 3", len(all))
	}
}

func TestMergeSortsAndCombines(t *testing.T) {
	a := NewTrace([]packet.Packet{mkPkt(1, 100, 10), mkPkt(1, 100, 30)})
	b := NewTrace([]packet.Packet{mkPkt(2, 100, 20)})
	m := Merge(a, b)
	if len(m.Packets) != 3 {
		t.Fatalf("merged packets = %d", len(m.Packets))
	}
	for i := 1; i < len(m.Packets); i++ {
		if m.Packets[i].TS < m.Packets[i-1].TS {
			t.Fatal("merged trace not time-ordered")
		}
	}
	if m.Flows() != 2 {
		t.Errorf("merged flows = %d, want 2", m.Flows())
	}
}

func TestDuration(t *testing.T) {
	if (&Trace{}).Duration() != 0 {
		t.Error("empty trace duration must be 0")
	}
	tr := NewTrace([]packet.Packet{mkPkt(1, 10, 100), mkPkt(1, 10, 600)})
	if tr.Duration() != 500 {
		t.Errorf("duration = %d, want 500", tr.Duration())
	}
}

func TestPcapRoundTrip(t *testing.T) {
	orig, err := GenerateZipf(ZipfConfig{Flows: 50, TotalPackets: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WritePcap(&buf, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != len(orig.Packets) {
		t.Fatalf("round trip packets = %d, want %d", len(got.Packets), len(orig.Packets))
	}
	if got.Flows() != orig.Flows() {
		t.Errorf("round trip flows = %d, want %d", got.Flows(), orig.Flows())
	}
	for i := range got.Packets {
		if got.Packets[i].Key != orig.Packets[i].Key {
			t.Fatalf("packet %d key mismatch", i)
		}
		if got.Packets[i].TS != orig.Packets[i].TS {
			t.Fatalf("packet %d ts mismatch", i)
		}
	}
	// Ground truth must survive the round trip exactly.
	orig.EachTruth(func(k packet.FlowKey, ft *FlowTruth) {
		g := got.Truth(k)
		if g == nil || g.Pkts != ft.Pkts {
			t.Fatalf("flow %v truth lost in pcap round trip", k)
		}
	})
}

func TestPcapSourceSkipsNonIP(t *testing.T) {
	raw, ends, nonIP := wireCapture(t, 1000)
	pr, err := pcap.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	src := NewPcapSource(pr)
	got := drain(t, src, 64)
	if len(got) != len(ends)-1 || src.Skipped != nonIP || nonIP != 10 {
		t.Fatalf("parsed %d packets, skipped %d; want %d and %d", len(got), src.Skipped, len(ends)-1, nonIP)
	}
}
