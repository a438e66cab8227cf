package fleet

import (
	"sync"
	"testing"
	"time"

	"instameasure/internal/detect"
	"instameasure/internal/export"
	"instameasure/internal/packet"
)

// TestSlowOnAlertDoesNotBlockFleetQueries pins Ingest's callback
// discipline: detector alerts are collected under a.mu but published —
// alert ring, OnAlert callback, telemetry — strictly after the lock is
// released. A wedged alert consumer (a stalled pager webhook, say) pins
// only its own ingest goroutine; every fleet query and other sites'
// ingests keep flowing. Run under -race by the vet-race target.
func TestSlowOnAlertDoesNotBlockFleetQueries(t *testing.T) {
	ddos, err := detect.NewStreamDetector(detect.StreamConfig{Kind: detect.KindDDoSVictim, Threshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	a := mustAgg(t, Config{
		Detectors: []*detect.StreamDetector{ddos},
		OnAlert: func(al detect.Alert) {
			once.Do(func() { close(entered) })
			<-release // wedge the consumer until the test has probed
		},
	})

	victim := uint32(0xC0A80001)
	recs := make([]export.Record, 0, 200)
	for s := 0; s < 200; s++ {
		recs = append(recs, export.Record{
			Key:  packet.V4Key(0x0A000000+uint32(s), victim, 1024, 80, packet.ProtoTCP),
			Pkts: 2, Bytes: 120, LastUpdate: int64(s),
		})
	}
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		a.Ingest(export.Batch{Epoch: 1, Site: "edge-1", Records: recs})
	}()
	<-entered // the detector fired and OnAlert is now wedged

	// Every query must complete while the callback sits blocked. A
	// deadline goroutine turns a regression (query stuck on a.mu) into a
	// clean failure instead of a test-suite hang.
	queries := make(chan struct{})
	go func() {
		defer close(queries)
		if top := a.TopK(5, true); len(top) == 0 {
			t.Error("TopK empty while OnAlert blocked")
		}
		if sites := a.Sites(); len(sites) != 1 {
			t.Errorf("Sites() = %d while OnAlert blocked, want 1", len(sites))
		}
		if st := a.Stats(); st.Batches != 1 {
			t.Errorf("Stats().Batches = %d while OnAlert blocked, want 1", st.Batches)
		}
		if al := a.Alerts(0, 10); len(al) != 1 {
			t.Errorf("Alerts() = %d while OnAlert blocked, want 1 (ring publishes before the callback)", len(al))
		}
		// Another site's ingest must also get through: the wedged
		// callback pins only its own ingest goroutine.
		a.Ingest(export.Batch{Epoch: 1, Site: "edge-2", Records: []export.Record{flowRec(1, 7, 700)}})
		if sites := a.Sites(); len(sites) != 2 {
			t.Errorf("Sites() = %d after second ingest, want 2", len(sites))
		}
	}()
	select {
	case <-queries:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("fleet queries blocked behind a slow OnAlert: Ingest is holding a.mu across callbacks")
	}

	close(release)
	select {
	case <-ingestDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Ingest did not return after OnAlert was released")
	}
}
