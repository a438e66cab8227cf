package instameasure

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"instameasure/internal/export"
)

// fleetMeter processes a trace in two epoch cuts, exporting the full
// cumulative snapshot after each — the export cadence fleet mode runs at.
func fleetMeter(t *testing.T, addr, site string, tr *Trace) {
	t.Helper()
	m, err := New(Config{SketchMemoryBytes: 32 << 10, WSAFEntries: 1 << 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := DialCollector(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.WithSite(site); err != nil {
		t.Fatal(err)
	}
	if got := exp.Site(); got != site {
		t.Fatalf("Site() = %q, want %q", got, site)
	}
	half := len(tr.Packets) / 2
	for _, p := range tr.Packets[:half] {
		m.Process(p)
	}
	if err := exp.ExportMeter(m, 1); err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Packets[half:] {
		m.Process(p)
	}
	if err := exp.ExportMeter(m, 2); err != nil {
		t.Fatal(err)
	}
}

func waitFleet(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFleetSmoke is the fleet-mode end-to-end: two meters with distinct
// site IDs feed one collector over TCP; the network-wide top-k must
// recover the oracle union of both sites' workloads, and the DDoS
// detector must name the spoofed flood's victim exactly once (precision
// and recall both 1) while the benign site stays silent. Run under
// -race by the fleet-smoke make target.
func TestFleetSmoke(t *testing.T) {
	const bots = 1200
	bgA, err := GenerateZipfTrace(ZipfTraceConfig{Flows: 4000, TotalPackets: 120_000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	bgB, err := GenerateZipfTrace(ZipfTraceConfig{Flows: 4000, TotalPackets: 120_000, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Each bot sends enough packets that its flow saturates the meter's
	// FlowRegulator and lands in the WSAF — the fleet tier only sees
	// flows the meters actually track.
	atk, truth, err := GenerateSpoofedDDoSTrace(SpoofedDDoSConfig{Sources: bots, PacketsPerSource: 48, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	tr1 := MergeTraces(bgA, atk) // edge-1 sees the flood
	tr2 := bgB                   // edge-2 is clean

	var mu sync.Mutex
	var fired []FleetAlert
	coll, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	fl, err := coll.EnableFleet(FleetConfig{
		DDoSSources: bots / 4,
		OnAlert: func(al FleetAlert) {
			mu.Lock()
			fired = append(fired, al)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Mount telemetry + the JSON API before traffic flows, the way a
	// collector process would: fleet counters only track batches and
	// alerts published while instrumented.
	tel := NewTelemetry()
	srv, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.ServeFleet(fl)

	var wg sync.WaitGroup
	for _, site := range []struct {
		name string
		tr   *Trace
	}{{"edge-1", tr1}, {"edge-2", tr2}} {
		site := site
		wg.Add(1)
		go func() {
			defer wg.Done()
			fleetMeter(t, coll.Addr(), site.name, site.tr)
		}()
	}
	wg.Wait()
	waitFleet(t, func() bool { return fl.Stats().Batches == 4 }, "4 batches merged")

	// Site views: both sites present, edge-1 carrying the flood's extra
	// flows.
	sites := fl.Sites()
	if len(sites) != 2 || sites[0].Site != "edge-1" || sites[1].Site != "edge-2" {
		t.Fatalf("sites = %+v", sites)
	}
	if sites[0].Flows <= sites[1].Flows {
		t.Errorf("edge-1 (with flood) tracks %d flows, edge-2 %d — expected more at edge-1",
			sites[0].Flows, sites[1].Flows)
	}

	// Network-wide top-k vs the oracle union of both sites' traffic.
	const k = 10
	oracle := MergeTraces(tr1, tr2).TopTruth(k, func(ft *FlowTruth) float64 { return float64(ft.Pkts) })
	oracleSet := make(map[FlowKey]bool, k)
	for _, key := range oracle {
		oracleSet[key] = true
	}
	top := fl.TopKPackets(k)
	if len(top) != k {
		t.Fatalf("TopKPackets = %d flows, want %d", len(top), k)
	}
	overlap := 0
	for _, fr := range top {
		if oracleSet[fr.Key] {
			overlap++
		}
		// Attribution must be internally consistent: site shares sum to
		// the network total (all deltas were monotone).
		var sum float64
		for _, sh := range fr.Sites {
			sum += sh.Pkts
		}
		if sum != fr.Pkts {
			t.Errorf("flow %v: site shares sum %v != network %v", fr.Key, sum, fr.Pkts)
		}
	}
	if overlap != k {
		t.Errorf("network top-%d recovered %d oracle flows, want all %d", k, overlap, k)
	}
	if !oracleSet[top[0].Key] {
		t.Errorf("top flow %v not in oracle top-%d", top[0].Key, k)
	}

	// Detection: exactly one alert (hysteresis across the two epochs),
	// naming the true victim — precision 1, recall 1 against the oracle.
	mu.Lock()
	alerts := append([]FleetAlert(nil), fired...)
	mu.Unlock()
	tp, fp := 0, 0
	for _, al := range alerts {
		if al.Kind == "ddos_victim" && al.Host == truth.Host.String() {
			tp++
		} else {
			fp++
		}
	}
	if tp != 1 || fp != 0 {
		t.Fatalf("precision/recall violated: tp=%d fp=%d, alerts=%+v", tp, fp, alerts)
	}
	ringed := fl.Alerts(0, 10)
	if len(ringed) != 1 || ringed[0].Seq != 1 || ringed[0].Host != truth.Host.String() {
		t.Fatalf("alert ring = %+v", ringed)
	}
	if got := ringed[0].Sites; len(got) != 1 || got[0] != "edge-1" {
		t.Errorf("alert attributed to %v, want [edge-1]", got)
	}

	// Telemetry + JSON API end to end over the mounted server.
	resp, err := http.Get(srv.URL() + "/fleet/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/fleet/stats: %d", resp.StatusCode)
	}
	var st FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sites != 2 || st.Batches != 4 || st.Alerts != 1 {
		t.Fatalf("served stats = %+v", st)
	}
	if got := tel.Value("instameasure_fleet_sites"); got != 2 {
		t.Errorf("fleet_sites gauge = %v, want 2", got)
	}
	alertSeries := fmt.Sprintf("instameasure_fleet_alerts_total{kind=%q}", "ddos_victim")
	if got := tel.Value(alertSeries); got != 1 {
		t.Errorf("%s = %v, want 1", alertSeries, got)
	}
}

// TestFleetSilentOnBenign pins the false-positive side: a fleet with
// all three detectors armed sees only benign zipf traffic and must not
// alert.
func TestFleetSilentOnBenign(t *testing.T) {
	bg, err := GenerateZipfTrace(ZipfTraceConfig{Flows: 4000, TotalPackets: 80_000, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	fl, err := coll.EnableFleet(FleetConfig{DDoSSources: 500, SpreaderDsts: 500, ScanPorts: 500})
	if err != nil {
		t.Fatal(err)
	}
	fleetMeter(t, coll.Addr(), "edge-1", bg)
	waitFleet(t, func() bool { return fl.Stats().Batches == 2 }, "2 batches merged")
	if alerts := fl.Alerts(0, 10); len(alerts) != 0 {
		t.Fatalf("benign workload alerted: %+v", alerts)
	}
	st := fl.Stats()
	if len(st.Detectors) != 3 {
		t.Fatalf("detectors = %+v", st.Detectors)
	}
	for _, d := range st.Detectors {
		if d.Fired != 0 {
			t.Errorf("detector %s fired %d times on benign traffic", d.Kind, d.Fired)
		}
	}
}

// TestFleetCollectorDoesNotDoubleCount: a fleet collector's Flows is the
// network view under the cumulative-counter model. One site re-sending
// the same 3-flow snapshot at two epochs reports each flow once, at its
// snapshot value — an additive merge would report it doubled.
func TestFleetCollectorDoesNotDoubleCount(t *testing.T) {
	coll, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	fl, err := coll.EnableFleet(FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := export.Dial(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.WithSite("edge-1"); err != nil {
		t.Fatal(err)
	}
	snap := map[FlowKey]FlowRecord{}
	var recs []export.Record
	for i := range 3 {
		r := FlowRecord{Key: V4Key(uint32(10+i), 99, uint16(1000+i), 443, ProtoTCP),
			Pkts: float64(10 * (i + 1)), Bytes: float64(1500 * (i + 1)), FirstSeen: 1, LastUpdate: 2}
		snap[r.Key] = r
		recs = append(recs, export.Record(r))
	}
	for epoch := int64(1); epoch <= 2; epoch++ {
		if err := exp.Export(export.Batch{Epoch: epoch, Records: recs}); err != nil {
			t.Fatal(err)
		}
	}
	waitFleet(t, func() bool { return fl.Stats().Batches == 2 }, "2 batches ingested")

	flows := coll.Flows()
	if len(flows) != len(snap) {
		t.Fatalf("Flows() = %d flows, want %d", len(flows), len(snap))
	}
	for _, f := range flows {
		want, ok := snap[f.Key]
		if !ok {
			t.Fatalf("Flows() reports unknown flow %v", f.Key)
		}
		if f.Pkts != want.Pkts || f.Bytes != want.Bytes {
			t.Errorf("flow %v = %v pkts / %v bytes, want the snapshot's %v / %v",
				f.Key, f.Pkts, f.Bytes, want.Pkts, want.Bytes)
		}
	}
}
