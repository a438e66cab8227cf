package instameasure

import (
	"math"
	"net/netip"
	"sync"
	"testing"
	"time"
)

func TestPublicSuperSpreaderDetector(t *testing.T) {
	d, err := NewSuperSpreaderDetector(SpreadConfig{Threshold: 200})
	if err != nil {
		t.Fatal(err)
	}
	const scanner = 0x0A0A0A0A
	for i := 0; i < 1000; i++ {
		d.Observe(Packet{
			Key: V4Key(scanner, uint32(i)+1, 1000, 80, ProtoTCP),
			Len: 60,
			TS:  int64(i),
		})
	}
	// Many ports on one host are a port scan, not a spread.
	for i := 0; i < 1000; i++ {
		d.Observe(Packet{Key: V4Key(0x0B0B0B0B, 9, 1000, uint16(i), ProtoTCP), Len: 60, TS: int64(i)})
	}
	addr := netip.MustParseAddr("10.10.10.10")
	got := d.SuperSpreaders()
	if len(got) != 1 || got[0].Addr != addr {
		t.Fatalf("spreaders = %+v", got)
	}
	if at := got[0].FirstFlagged; at < 100 || at > 400 {
		t.Errorf("flagged at TS %d, want near the 200th destination", at)
	}
	if est := d.Estimate(addr); math.Abs(est-1000)/1000 > 0.15 || got[0].DistinctEst != est {
		t.Errorf("estimate %.0f (report %.0f), want ≈1000", est, got[0].DistinctEst)
	}
}

func TestPublicDDoSDetector(t *testing.T) {
	d, err := NewDDoSDetector(SpreadConfig{Threshold: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Two IPv6 victims whose four 32-bit words XOR to the same value: a
	// fold of the address into a uint32 would count them as one host.
	victims := []netip.Addr{netip.MustParseAddr("2001:db8::"), netip.MustParseAddr("2001:db8:0:1::1")}
	for v, victim := range victims {
		for i := 0; i < 400*(v+1); i++ {
			d.Observe(Packet{
				Key: FlowKey{SrcIP: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}).As16(),
					DstIP: victim.As16(), SrcPort: 1000, DstPort: 53, Proto: ProtoUDP, IsV6: true},
				Len: 500,
				TS:  int64(i),
			})
		}
	}
	got := d.Victims()
	if len(got) != 2 || got[0].Addr != victims[1] || got[1].Addr != victims[0] {
		t.Fatalf("victims = %+v, want both, larger spread first", got)
	}
	if est := d.Estimate(victims[1]); math.Abs(est-800)/800 > 0.15 {
		t.Errorf("estimate %.0f, want ≈800", est)
	}
}

func TestSpreadConfigValidation(t *testing.T) {
	for _, cfg := range []SpreadConfig{
		{},
		{Threshold: -1},
		{Threshold: math.NaN()},
		{Threshold: math.Inf(1)},
		{Threshold: 10, Precision: 99},
		{Threshold: 10, MaxTracked: -1},
	} {
		if _, err := NewSuperSpreaderDetector(cfg); err == nil {
			t.Errorf("super-spreader config %+v accepted", cfg)
		}
		if _, err := NewDDoSDetector(cfg); err == nil {
			t.Errorf("DDoS config %+v accepted", cfg)
		}
	}
}

func TestMeterFlowEntropy(t *testing.T) {
	m := testMeter(t)
	if m.FlowEntropy() != 0 || m.NormalizedFlowEntropy() != 0 {
		t.Error("empty meter entropy must be 0")
	}
	tr := testTrace(t)
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	h := m.FlowEntropy()
	n := m.NormalizedFlowEntropy()
	if h <= 0 {
		t.Errorf("entropy = %v, want positive", h)
	}
	if n <= 0 || n > 1 {
		t.Errorf("normalized entropy = %v outside (0,1]", n)
	}
}

func TestPublicCollectorExporter(t *testing.T) {
	var mu sync.Mutex
	var epochs []int64
	coll, err := NewCollector("127.0.0.1:0", func(epoch int64, flows []FlowRecord) {
		mu.Lock()
		epochs = append(epochs, epoch)
		mu.Unlock()
		if len(flows) == 0 {
			t.Error("batch hook received no flows")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()

	tr := testTrace(t)
	m := testMeter(t)
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}

	exp, err := DialCollector(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.ExportMeter(m, 7); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if b, _ := coll.Stats(); b >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	batches, records := coll.Stats()
	if batches != 1 {
		t.Fatalf("batches = %d, want 1", batches)
	}
	if int(records) != m.Stats().ActiveFlows {
		t.Errorf("collector records = %d, meter flows = %d", records, m.Stats().ActiveFlows)
	}
	if len(coll.Flows()) != m.Stats().ActiveFlows {
		t.Errorf("collector flows = %d, want %d", len(coll.Flows()), m.Stats().ActiveFlows)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(epochs) != 1 || epochs[0] != 7 {
		t.Errorf("epochs = %v, want [7]", epochs)
	}
}

func TestDialCollectorRefused(t *testing.T) {
	if _, err := DialCollector("127.0.0.1:1"); err == nil {
		t.Error("dialing a dead port must fail")
	}
}

func TestPublicPersistenceTracker(t *testing.T) {
	p, err := NewPersistenceTracker(PersistConfig{WindowEpochs: 4, MinEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	beacon := V4Key(1, 2, 443, 443, ProtoTCP)
	transientBase := uint32(100)
	for epoch := 0; epoch < 4; epoch++ {
		flows := []FlowRecord{{Key: beacon, Pkts: 10}}
		flows = append(flows, FlowRecord{
			Key:  V4Key(transientBase+uint32(epoch), 9, 1, 1, ProtoUDP),
			Pkts: 500,
		})
		p.ObserveEpoch(flows)
	}
	got := p.Persistent()
	if len(got) != 1 || got[0].Key != beacon || got[0].Epochs != 4 {
		t.Fatalf("persistent = %+v, want the beacon in all 4 epochs", got)
	}
	if p.Presence(beacon) != 4 {
		t.Errorf("presence = %d", p.Presence(beacon))
	}
	if _, err := NewPersistenceTracker(PersistConfig{WindowEpochs: 99}); err == nil {
		t.Error("oversized window must fail")
	}
}

func TestTrafficSummary(t *testing.T) {
	tr := testTrace(t) // 10k flows, Zipf
	m := testMeter(t)
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	sum := m.TrafficSummary()
	if sum.TotalPackets != uint64(len(tr.Packets)) {
		t.Errorf("total packets = %d", sum.TotalPackets)
	}
	if sum.ElephantFlows == 0 || sum.ElephantPkts <= 0 {
		t.Error("no elephants in a Zipf trace")
	}
	// Zipf: mice vastly outnumber elephants.
	if sum.MiceFlowsEst < float64(sum.ElephantFlows)*5 {
		t.Errorf("mice flows %.0f not ≫ elephant flows %d", sum.MiceFlowsEst, sum.ElephantFlows)
	}
	// Mean mouse size must be small (1-10 packet mice dominate).
	if sum.MeanMouseSizeEst <= 0 || sum.MeanMouseSizeEst > 50 {
		t.Errorf("mean mouse size %.1f implausible", sum.MeanMouseSizeEst)
	}
	// Accounting identity within estimate error.
	recon := sum.ElephantPkts + sum.MicePktsEst
	if math.Abs(recon-float64(sum.TotalPackets))/float64(sum.TotalPackets) > 0.05 {
		t.Errorf("packet accounting off: %v vs %d", recon, sum.TotalPackets)
	}
}
