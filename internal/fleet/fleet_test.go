package fleet

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"instameasure/internal/detect"
	"instameasure/internal/export"
	"instameasure/internal/packet"
	"instameasure/internal/store"
)

func flowRec(i int, pkts, bytes float64) export.Record {
	return export.Record{
		Key:        packet.V4Key(0x0A000000+uint32(i), 0x0B000000+uint32(i), 40000, 443, packet.ProtoTCP),
		Pkts:       pkts,
		Bytes:      bytes,
		FirstSeen:  int64(i) * 10,
		LastUpdate: int64(i)*10 + 5,
	}
}

func mustAgg(t *testing.T, cfg Config) *Aggregator {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{MaxSites: -1}); err == nil {
		t.Error("negative MaxSites accepted")
	}
	if _, err := New(Config{AlertRingSize: -1}); err == nil {
		t.Error("negative AlertRingSize accepted")
	}
}

// TestCumulativeNoDoubleCount pins the cumulative-counter contract: a
// re-sent identical snapshot adds nothing to the network view, and a
// grown snapshot adds exactly its delta.
func TestCumulativeNoDoubleCount(t *testing.T) {
	a := mustAgg(t, Config{})
	snap := []export.Record{flowRec(1, 10, 1000), flowRec(2, 4, 400)}
	a.Ingest(export.Batch{Epoch: 1, Site: "edge-1", Records: snap})
	a.Ingest(export.Batch{Epoch: 1, Site: "edge-1", Records: snap}) // re-sent verbatim

	top := a.TopK(10, false)
	if len(top) != 2 {
		t.Fatalf("TopK = %d flows, want 2", len(top))
	}
	if top[0].Pkts != 10 || top[1].Pkts != 4 {
		t.Fatalf("re-sent snapshot double-counted: %v / %v", top[0].Pkts, top[1].Pkts)
	}

	// The snapshot grows: only the delta lands in the network view.
	a.Ingest(export.Batch{Epoch: 2, Site: "edge-1", Records: []export.Record{flowRec(1, 25, 2500)}})
	top = a.TopK(1, false)
	if top[0].Pkts != 25 {
		t.Fatalf("after growth: top pkts = %v, want 25", top[0].Pkts)
	}
}

// TestMeterRestart pins backward-moving counters as a fresh flow life:
// the full restarted counters accumulate rather than a negative delta.
func TestMeterRestart(t *testing.T) {
	a := mustAgg(t, Config{})
	a.Ingest(export.Batch{Epoch: 1, Site: "edge-1", Records: []export.Record{flowRec(1, 100, 10000)}})
	// Meter restarts; the same flow reappears with small counters.
	a.Ingest(export.Batch{Epoch: 2, Site: "edge-1", Records: []export.Record{flowRec(1, 3, 300)}})
	top := a.TopK(1, false)
	if top[0].Pkts != 103 {
		t.Fatalf("restart: network pkts = %v, want 103 (100 + fresh 3)", top[0].Pkts)
	}
	// The per-site view replaces, so the site reports the latest life.
	flows, ok := a.SiteTopK("edge-1", 1, false)
	if !ok || len(flows) != 1 || flows[0].Pkts != 3 {
		t.Fatalf("site view after restart = %+v, ok=%v", flows, ok)
	}
}

// TestRotationPerEpochRound pins the fleet windowing: one rotation per
// epoch round no matter how many sites report into it, none for the
// first round or for the final-flush epoch (-1).
func TestRotationPerEpochRound(t *testing.T) {
	a := mustAgg(t, Config{})
	rec := []export.Record{flowRec(1, 1, 100)}
	a.Ingest(export.Batch{Epoch: 1, Site: "edge-1", Records: rec})
	a.Ingest(export.Batch{Epoch: 1, Site: "edge-2", Records: rec})
	if st := a.Stats(); st.Rotations != 0 {
		t.Fatalf("first round rotated: %d", st.Rotations)
	}
	a.Ingest(export.Batch{Epoch: 2, Site: "edge-1", Records: []export.Record{flowRec(1, 2, 200)}})
	a.Ingest(export.Batch{Epoch: 2, Site: "edge-2", Records: []export.Record{flowRec(1, 2, 200)}})
	if st := a.Stats(); st.Rotations != 1 {
		t.Fatalf("epoch 2 round: rotations = %d, want 1", st.Rotations)
	}
	a.Ingest(export.Batch{Epoch: -1, Site: "edge-1", Records: []export.Record{flowRec(1, 3, 300)}})
	if st := a.Stats(); st.Rotations != 1 {
		t.Fatalf("final flush rotated: %d", st.Rotations)
	}
	if st := a.Stats(); st.RotatedEpoch != 2 {
		t.Fatalf("RotatedEpoch = %d, want 2", st.RotatedEpoch)
	}
}

func TestMaxSitesDrop(t *testing.T) {
	a := mustAgg(t, Config{MaxSites: 2})
	rec := []export.Record{flowRec(1, 1, 100)}
	a.Ingest(export.Batch{Epoch: 1, Site: "a", Records: rec})
	a.Ingest(export.Batch{Epoch: 1, Site: "b", Records: rec})
	a.Ingest(export.Batch{Epoch: 1, Site: "c", Records: rec})
	st := a.Stats()
	if st.Sites != 2 {
		t.Errorf("Sites = %d, want 2", st.Sites)
	}
	if st.SiteDrops != 1 {
		t.Errorf("SiteDrops = %d, want 1", st.SiteDrops)
	}
	// A known site keeps ingesting with the table full.
	a.Ingest(export.Batch{Epoch: 2, Site: "a", Records: []export.Record{flowRec(1, 2, 200)}})
	if st := a.Stats(); st.Batches != 3 {
		t.Errorf("Batches = %d, want 3", st.Batches)
	}
}

func TestChangersWindows(t *testing.T) {
	a := mustAgg(t, Config{})
	// Window 1: flow 1 moves 10 pkts, flow 2 moves 100.
	a.Ingest(export.Batch{Epoch: 1, Site: "s", Records: []export.Record{flowRec(1, 10, 1000), flowRec(2, 100, 10000)}})
	// Window 2: flow 1 surges to +90, flow 2 stalls at +5.
	a.Ingest(export.Batch{Epoch: 2, Site: "s", Records: []export.Record{flowRec(1, 100, 10000), flowRec(2, 105, 10500)}})
	ch := a.Changers(2, false)
	if len(ch) != 2 {
		t.Fatalf("changers = %d, want 2", len(ch))
	}
	// Window deltas: flow 1 moved 10 then 90 (change +80), flow 2 moved
	// 100 then 5 (change -95); flow 2's magnitude ranks first.
	if ch[0].Key != flowRec(2, 0, 0).Key || ch[0].Pkts != -95 {
		t.Errorf("top changer = %+v, want flow 2 at -95 pkts", ch[0])
	}
	if ch[1].Key != flowRec(1, 0, 0).Key || ch[1].Pkts != 80 {
		t.Errorf("second changer = %+v, want flow 1 at +80 pkts", ch[1])
	}
}

func TestAlertRingPaging(t *testing.T) {
	r := newAlertRing(4)
	if got := r.since(0, 0); got != nil {
		t.Fatalf("empty ring returned %v", got)
	}
	for i := 0; i < 6; i++ {
		al := detect.Alert{Host: fmt.Sprintf("h%d", i)}
		if seq := r.publish(&al); seq != uint64(i+1) {
			t.Fatalf("publish %d: seq = %d", i, seq)
		}
	}
	// Ring holds 4 of 6: seqs 3..6.
	all := r.since(0, 0)
	if len(all) != 4 || all[0].Seq != 3 || all[3].Seq != 6 {
		t.Fatalf("since(0) = %+v", all)
	}
	// Paging forward from a seen seq.
	page := r.since(4, 0)
	if len(page) != 2 || page[0].Seq != 5 {
		t.Fatalf("since(4) = %+v", page)
	}
	// max caps the page, oldest first.
	capped := r.since(0, 2)
	if len(capped) != 2 || capped[0].Seq != 3 || capped[1].Seq != 4 {
		t.Fatalf("since(0, max=2) = %+v", capped)
	}
	// Caught up.
	if got := r.since(6, 0); got != nil {
		t.Fatalf("since(newest) = %+v", got)
	}
	if r.lastSeq() != 6 {
		t.Fatalf("lastSeq = %d", r.lastSeq())
	}
}

// TestMultiExporterStress is the fleet-tier race test: N concurrent
// exporters with distinct sites and overlapping flows ship several
// cumulative snapshot rounds over real TCP; afterwards every network-
// wide flow total must equal the sum of its per-site latest totals.
// Run with -race by the fleet-smoke target.
func TestMultiExporterStress(t *testing.T) {
	agg := mustAgg(t, Config{})
	coll, err := export.NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	coll.AddHook(agg.Ingest)

	const (
		sites  = 4
		rounds = 5
		flows  = 32 // flows overlap across all sites
	)
	var wg sync.WaitGroup
	for s := 0; s < sites; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			exp, err := export.Dial(coll.Addr())
			if err != nil {
				t.Errorf("site %d: %v", s, err)
				return
			}
			defer exp.Close()
			if err := exp.WithSite(fmt.Sprintf("site-%d", s)); err != nil {
				t.Error(err)
				return
			}
			for r := 1; r <= rounds; r++ {
				recs := make([]export.Record, 0, flows)
				for f := 0; f < flows; f++ {
					// Cumulative counters grow per round, site-skewed so
					// each site contributes a distinct share.
					pkts := float64(r * (f + 1) * (s + 1))
					recs = append(recs, flowRec(f, pkts, pkts*100))
				}
				if err := exp.Export(export.Batch{Epoch: int64(r), Records: recs}); err != nil {
					t.Errorf("site %d round %d: %v", s, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Export returns once the frame is written; wait for the collector
	// side to read and merge every batch before closing it (Close
	// interrupts in-flight reads rather than draining them).
	deadline := time.Now().Add(5 * time.Second)
	for agg.Stats().Batches < sites*rounds && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := coll.Close(); err != nil {
		t.Fatal(err)
	}

	st := agg.Stats()
	if st.Sites != sites {
		t.Fatalf("Sites = %d, want %d", st.Sites, sites)
	}
	if st.Batches != sites*rounds {
		t.Fatalf("Batches = %d, want %d", st.Batches, sites*rounds)
	}

	// Every site's latest snapshot is round `rounds`; the network view
	// must equal the per-site sum exactly (all deltas were positive, so
	// restart handling never kicked in).
	top := agg.TopK(flows, false)
	if len(top) != flows {
		t.Fatalf("TopK = %d flows, want %d", len(top), flows)
	}
	for _, fr := range top {
		if len(fr.Sites) != sites {
			t.Fatalf("flow %v attributed to %d sites, want %d", fr.Key, len(fr.Sites), sites)
		}
		var sum float64
		for _, sh := range fr.Sites {
			sum += sh.Pkts
		}
		if fr.Pkts != sum {
			t.Fatalf("flow %v: network pkts %v != site sum %v", fr.Key, fr.Pkts, sum)
		}
	}
	// And the heaviest flow is the one every site pushed hardest.
	want := flowRec(flows-1, 0, 0).Key
	if top[0].Key != want {
		t.Errorf("top flow = %v, want %v", top[0].Key, want)
	}
}

// TestDetectionThroughIngest drives a detector via the aggregator's
// delta path: cumulative snapshots whose growth is the attack.
// TestDetectionThroughIngest drives a DDoS-victim detector through
// Ingest: one alert per flood, none for a re-sent snapshot, and a later
// epoch's flood at a second site alerts in the rotated window. A second
// fresh aggregator fed the same batches after the first answers
// identically in every field: windows and alerts run on the trace clock
// (epochs, record timestamps), never the host's. Only SiteStats'
// LastArrival is host telemetry, and it is left out.
func TestDetectionThroughIngest(t *testing.T) {
	flood := func(victim uint32, pkts float64, ts int64) []export.Record {
		recs := make([]export.Record, 0, 200)
		for s := 0; s < 200; s++ {
			recs = append(recs, export.Record{
				Key:  packet.V4Key(0x0A000000+uint32(s), victim, 1024, 80, packet.ProtoTCP),
				Pkts: pkts, Bytes: 60 * pkts, LastUpdate: ts + int64(s),
			})
		}
		return recs
	}
	victim := uint32(0xC0A80001)
	first := export.Batch{Epoch: 1, Site: "edge-1", Records: flood(victim, 2, 0)}
	second := export.Batch{Epoch: 2, Site: "edge-2", Records: flood(victim+1, 3, 1_000)}

	var fired []detect.Alert
	var mu sync.Mutex
	fresh := func() *Aggregator {
		ddos, err := detect.NewStreamDetector(detect.StreamConfig{Kind: detect.KindDDoSVictim, Threshold: 50})
		if err != nil {
			t.Fatal(err)
		}
		return mustAgg(t, Config{
			Detectors: []*detect.StreamDetector{ddos},
			OnAlert: func(al detect.Alert) {
				mu.Lock()
				fired = append(fired, al)
				mu.Unlock()
			},
		})
	}
	seen := func() []detect.Alert {
		mu.Lock()
		defer mu.Unlock()
		return append([]detect.Alert(nil), fired...)
	}
	a := fresh()
	a.Ingest(first)

	alerts := seen()
	if len(alerts) != 1 {
		t.Fatalf("OnAlert fired %d times, want 1", len(alerts))
	}
	if alerts[0].Kind != "ddos_victim" || alerts[0].Host != "192.168.0.1" {
		t.Errorf("alert = %+v", alerts[0])
	}
	if alerts[0].Seq != 1 {
		t.Errorf("alert seq = %d, want 1 (ring-assigned)", alerts[0].Seq)
	}
	got := a.Alerts(0, 10)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Errorf("Alerts(0) = %+v", got)
	}
	if a.AlertSeq() != 1 {
		t.Errorf("AlertSeq = %d", a.AlertSeq())
	}

	// Re-sending the same snapshot produces zero deltas: the detector
	// must not observe anything, so no duplicate alert even after the
	// latch would have allowed one.
	a.Ingest(first)
	if n := len(seen()); n != 1 {
		t.Fatalf("re-sent snapshot re-fired: %d alerts", n)
	}
	a.Ingest(second)
	if alerts = seen(); len(alerts) != 2 || alerts[1].Host != "192.168.0.2" || alerts[1].Epoch != 2 {
		t.Fatalf("second epoch's flood: alerts %+v, want one more for 192.168.0.2", alerts)
	}

	b := fresh()
	for _, batch := range []export.Batch{first, first, second} {
		b.Ingest(batch)
	}
	if replayed := seen()[2:]; !reflect.DeepEqual(replayed, alerts) {
		t.Errorf("replayed OnAlert\n got %+v\nwant %+v", replayed, alerts)
	}
	type answers struct {
		Alerts           []detect.Alert
		TopPkts, TopByte []FlowRank
		Changers         []store.FlowChange
		Sites            []SiteStats
		Stats            Stats
	}
	answer := func(a *Aggregator) answers {
		sites := a.Sites()
		for i := range sites {
			sites[i].LastArrival = 0
		}
		return answers{a.Alerts(0, 10), a.TopK(10, false), a.TopK(10, true), a.Changers(10, false), sites, a.Stats()}
	}
	if x, y := answer(a), answer(b); !reflect.DeepEqual(x, y) {
		t.Errorf("two aggregators fed the same batches differ:\n%+v\n%+v", x, y)
	}
}

func TestFleetHTTPEndpoints(t *testing.T) {
	ddos, err := detect.NewStreamDetector(detect.StreamConfig{Kind: detect.KindDDoSVictim, Threshold: 30})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAgg(t, Config{Detectors: []*detect.StreamDetector{ddos}})
	victim := uint32(0xC0A80002)
	recs := []export.Record{flowRec(1, 10, 1000), flowRec(2, 4, 400)}
	for s := 0; s < 60; s++ {
		recs = append(recs, export.Record{
			Key:  packet.V4Key(0x0A100000+uint32(s), victim, 1024, 80, packet.ProtoTCP),
			Pkts: 1, Bytes: 60, LastUpdate: int64(s),
		})
	}
	a.Ingest(export.Batch{Epoch: 1, Site: "edge-1", Records: recs})
	a.Ingest(export.Batch{Epoch: 1, Site: "edge-2", Records: []export.Record{flowRec(1, 7, 700)}})

	api := NewAPI(a)
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		api.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}

	var sites struct {
		Sites []SiteStats `json:"sites"`
	}
	w := get("/fleet/sites")
	if w.Code != 200 {
		t.Fatalf("/fleet/sites: %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sites); err != nil {
		t.Fatal(err)
	}
	if len(sites.Sites) != 2 || sites.Sites[0].Site != "edge-1" || sites.Sites[1].Site != "edge-2" {
		t.Fatalf("sites = %+v", sites.Sites)
	}

	var topk struct {
		By    string `json:"by"`
		Flows []struct {
			Flow  string      `json:"flow"`
			Pkts  float64     `json:"pkts"`
			Sites []SiteShare `json:"sites"`
		} `json:"flows"`
	}
	w = get("/fleet/topk?k=1")
	if err := json.Unmarshal(w.Body.Bytes(), &topk); err != nil {
		t.Fatal(err)
	}
	if len(topk.Flows) != 1 || topk.Flows[0].Pkts != 17 {
		t.Fatalf("topk = %+v (want flow 1 at 10+7 pkts)", topk.Flows)
	}
	if len(topk.Flows[0].Sites) != 2 {
		t.Fatalf("topk attribution = %+v", topk.Flows[0].Sites)
	}

	w = get("/fleet/topk?k=1&site=edge-2&by=bytes")
	if err := json.Unmarshal(w.Body.Bytes(), &topk); err != nil {
		t.Fatal(err)
	}
	if topk.By != "bytes" || len(topk.Flows) != 1 || topk.Flows[0].Pkts != 7 {
		t.Fatalf("site topk = %+v", topk)
	}

	var alerts struct {
		LastSeq uint64         `json:"last_seq"`
		Alerts  []detect.Alert `json:"alerts"`
	}
	w = get("/fleet/alerts")
	if err := json.Unmarshal(w.Body.Bytes(), &alerts); err != nil {
		t.Fatal(err)
	}
	if alerts.LastSeq != 1 || len(alerts.Alerts) != 1 || alerts.Alerts[0].Kind != "ddos_victim" {
		t.Fatalf("alerts = %+v", alerts)
	}

	var stats Stats
	w = get("/fleet/stats")
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sites != 2 || stats.Batches != 2 || stats.Alerts != 1 || len(stats.Detectors) != 1 {
		t.Fatalf("stats = %+v", stats)
	}

	w = get("/fleet/changers")
	if w.Code != 200 {
		t.Fatalf("/fleet/changers: %d", w.Code)
	}

	// Error paths.
	for _, path := range []string{
		"/fleet/topk?k=0", "/fleet/topk?by=weight", "/fleet/topk?site=nope",
		"/fleet/alerts?since=-1", "/fleet/alerts?max=0", "/fleet/changers?k=x",
	} {
		if w := get(path); w.Code != 400 {
			t.Errorf("%s: code = %d, want 400", path, w.Code)
		}
	}
	if w := get("/fleet/unknown"); w.Code != 404 {
		t.Errorf("unknown path: code = %d, want 404", w.Code)
	}
}

// TestIngestConcurrentWithQueries races Ingest against every query
// method; meaningful under -race.
func TestIngestConcurrentWithQueries(t *testing.T) {
	a := mustAgg(t, Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := int64(1); ; e++ {
			select {
			case <-stop:
				return
			default:
			}
			a.Ingest(export.Batch{Epoch: e, Site: "a", Records: []export.Record{flowRec(int(e%8), float64(e), float64(e)*10)}})
			a.Ingest(export.Batch{Epoch: e, Site: "b", Records: []export.Record{flowRec(int(e%8), float64(e), float64(e)*10)}})
		}
	}()
	deadline := time.After(200 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			a.TopK(4, false)
			a.SiteTopK("a", 4, true)
			a.Changers(4, false)
			a.Sites()
			a.Stats()
			a.Alerts(0, 16)
		}
	}
	close(stop)
	wg.Wait()
}
