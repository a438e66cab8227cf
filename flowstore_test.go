package instameasure

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"instameasure/internal/export"
	"instameasure/internal/packet"
)

// TestMeterStoreCommitAndQuery drives the public history path: a meter
// committing epochs to a store, then windowed queries over them.
func TestMeterStoreCommitAndQuery(t *testing.T) {
	tr := testTrace(t)
	m := testMeter(t)
	fs, err := m.WithStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	epoch := int64(0)
	var n int
	for _, p := range tr.Packets {
		m.Process(p)
		if n++; n%60_000 == 0 {
			epoch++
			if err := m.CommitEpoch(epoch); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Final commit at EOF: delegation updates the WSAF in bursts, so the
	// live table keeps moving after the last mid-run commit.
	epoch++
	if err := m.CommitEpoch(epoch); err != nil {
		t.Fatal(err)
	}
	if epoch < 4 {
		t.Fatalf("only %d epochs committed", epoch)
	}

	st := fs.Stats()
	if int64(st.Epochs) != epoch || st.MaxEpoch != epoch {
		t.Fatalf("store stats %+v after %d commits", st, epoch)
	}

	// All-history top-k must agree with the live meter's.
	live := m.TopKPackets(5)
	stored, err := fs.TopK(EpochWindow{}, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 5 || stored[0].Key != live[0].Key || stored[0].Pkts != live[0].Pkts {
		t.Fatalf("stored top-k diverges from live: %+v vs %+v", stored[0], live[0])
	}

	// The heaviest flow has a monotone timeline ending at its live value.
	pts, err := fs.Timeline(live[0].Key, EpochWindow{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || pts[len(pts)-1].Pkts != live[0].Pkts {
		t.Fatalf("timeline end %v, live %v", pts, live[0].Pkts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Pkts < pts[i-1].Pkts {
			t.Fatalf("cumulative timeline went backwards at %d: %+v", i, pts)
		}
	}

	// EpochFlows round-trips a stored epoch with its activity counters.
	flows, activity, ok, err := fs.EpochFlows(epoch)
	if err != nil || !ok {
		t.Fatalf("EpochFlows: ok=%v err=%v", ok, err)
	}
	if len(flows) == 0 || activity.Updates == 0 {
		t.Fatalf("EpochFlows empty: %d flows, %+v", len(flows), activity)
	}
}

// TestServeFlowsEndToEnd mounts the store's query API on the telemetry
// endpoint and checks /flows answers and store metrics appear in
// /metrics.
func TestServeFlowsEndToEnd(t *testing.T) {
	tr := testTrace(t)
	m := testMeter(t)
	fs, err := m.WithStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	for e := int64(1); e <= 2; e++ {
		if err := m.CommitEpoch(e); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := m.Telemetry().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.ServeFlows(fs)

	resp, err := http.Get(srv.URL() + "/flows/topk?k=3&by=bytes")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/flows/topk: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Flows []struct {
			Flow  string  `json:"flow"`
			Bytes float64 `json:"bytes"`
		} `json:"flows"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(out.Flows) != 3 || out.Flows[0].Bytes <= 0 {
		t.Fatalf("topk over HTTP: %+v", out)
	}

	resp, err = http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"instameasure_store_appends_total",
		"instameasure_store_append_errors_total",
		"instameasure_store_query_nanos",
		"instameasure_store_segments",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCollectorStoreSink checks the delegation path: batches arriving at
// a collector land in its attached store under the batch epoch.
func TestCollectorStoreSink(t *testing.T) {
	fs, err := OpenFlowStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	coll, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	coll.WithStore(fs)

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
	for fs.Stats().Appends == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never reached the store sink")
		}
		time.Sleep(5 * time.Millisecond)
	}
	top, err := fs.TopK(EpochWindow{From: 7, To: 7}, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	live := m.TopKPackets(3)
	if len(top) != 3 || top[0].Key != live[0].Key {
		t.Fatalf("sinked store top-k diverges: %+v vs %+v", top, live)
	}
}

// TestCollectorStoreSinkCountsFailedAppends: a batch the collector cannot
// append (here: its store is closed) is not lost without a trace — the
// store counts it in AppendErrors.
func TestCollectorStoreSinkCountsFailedAppends(t *testing.T) {
	fs, err := OpenFlowStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	coll.WithStore(fs)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	m := testMeter(t)
	if _, err := m.Run(testTrace(t).Source()); err != nil {
		t.Fatal(err)
	}
	exp, err := DialCollector(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.ExportMeter(m, 1); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for fs.Stats().AppendErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the failed append was never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := fs.Stats(); st.AppendErrors != 1 || st.Appends != 0 {
		t.Fatalf("one batch into a closed store: %d append errors, %d appends; want 1, 0", st.AppendErrors, st.Appends)
	}
}

// TestCollectorConsumersCopyBatches: the collector decodes a connection's
// frames into one reused record array, so whatever a consumer keeps it
// must copy. After two same-sized frames on one connection, what the
// onBatch callback, the attached store and the fleet tier kept of the
// first still holds the first frame's values.
func TestCollectorConsumersCopyBatches(t *testing.T) {
	fs, err := OpenFlowStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	delivered := make(chan []FlowRecord, 2) // one per frame sent
	coll, err := NewCollector("127.0.0.1:0", func(_ int64, flows []FlowRecord) { delivered <- flows })
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	coll.WithStore(fs)
	fl, err := coll.EnableFleet(FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}

	frame := func(epoch int64, site string, base uint32) export.Batch {
		recs := make([]export.Record, 64)
		for i := range recs {
			pkts := float64(base) + float64(i)
			recs[i] = export.Record{
				Key:  packet.V4Key(base<<8|uint32(i), 0xC0A80001, uint16(1000+i), 443, packet.ProtoTCP),
				Pkts: pkts, Bytes: 100 * pkts, FirstSeen: 1, LastUpdate: epoch,
			}
		}
		return export.Batch{Epoch: epoch, Site: site, Records: recs}
	}
	first, second := frame(1, "edge-1", 10), frame(2, "edge-2", 5000)
	var wire bytes.Buffer
	for _, b := range []export.Batch{first, second} {
		if err := export.WriteBatch(&wire, b); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("tcp", coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}

	var kept []FlowRecord
	for i := 0; i < 2; i++ {
		select {
		case flows := <-delivered:
			if i == 0 {
				kept = flows
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never reached onBatch", i+1)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for fl.Stats().Batches < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the fleet tier never ingested both frames")
		}
		time.Sleep(5 * time.Millisecond)
	}

	want := make(map[FlowKey]FlowRecord, len(first.Records))
	for _, r := range first.Records {
		want[r.Key] = FlowRecord(r)
	}
	same := func(what string, got []FlowRecord) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records kept of the first frame, want %d", what, len(got), len(want))
		}
		for _, r := range got {
			if w, ok := want[r.Key]; !ok || r != w {
				t.Fatalf("%s: kept %+v, the first frame sent %+v", what, r, w)
			}
		}
	}
	same("onBatch", kept)
	stored, _, ok, err := fs.EpochFlows(1)
	if err != nil || !ok {
		t.Fatalf("store epoch 1: ok=%v, %v", ok, err)
	}
	same("store", stored)
	top := fl.TopKPackets(2 * len(first.Records))
	var fleetFirst []FlowRecord
	for _, f := range top {
		if _, ok := want[f.Key]; ok {
			fleetFirst = append(fleetFirst, FlowRecord{Key: f.Key, Pkts: f.Pkts, Bytes: f.Bytes, FirstSeen: 1, LastUpdate: 1})
		}
	}
	same("fleet", fleetFirst)
}
