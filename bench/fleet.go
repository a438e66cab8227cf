package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"instameasure/internal/detect"
	"instameasure/internal/export"
	"instameasure/internal/fleet"
	"instameasure/internal/flight"
	"instameasure/internal/packet"
	"instameasure/internal/store"
	"instameasure/internal/telemetry"
)

const (
	fleetRecords  = 40_000 // background records per site per epoch
	fleetK        = 100
	fleetWindow   = 10 // a query spans this many epochs
	fleetWarmup   = 12 // set-up exports this many epochs, so a full window exists
	commitTimeout = 5 * time.Second
	verifyEvery   = 4 // every n-th query is also checked against a direct FlowStore.TopK
)

var siteNames = []string{"edge-1", "edge-2"}

type commitStamp struct {
	site          int
	deliver, done time.Time
}

type alertStamp struct {
	host string
	at   time.Time
}

// fleetRig is the control plane under test: a collector on loopback TCP
// with a store sink and the fleet tier hooked on, an HTTP endpoint over
// the store, and two exporters. It is wired through the same internal
// calls as root NewCollector + WithStore + EnableFleet{DDoSSources: 300}
// and TelemetryServer.ServeFlows; the one addition is the time stamp the
// sink takes once store.Append has returned.
type fleetRig struct {
	r   *run
	rec *recorder // nil in untraced sections
	dir string

	st     *store.Store
	coll   *export.Collector
	agg    *fleet.Aggregator
	srv    *telemetry.Server
	client *http.Client
	exps   []*export.Exporter
	sites  []*fleetSite

	commits  chan commitStamp
	ingested atomic.Int64
	mu       sync.Mutex
	alerts   []alertStamp
	spans    sync.Map // epoch → span id

	epoch    int64
	exported struct{ batches, records int64 }
	episodes map[string]time.Time // victim → Export start of its first crossing batch
	history  [fleetWindow + 1][]siteSnap
	queries  int
	absErr   float64
	truthSum float64
}

// siteSnap is one site's background counters at one epoch — the truth a
// windowed query is checked against.
type siteSnap struct{ pkts, bytes []float64 }

func (r *run) openFleet(rec *recorder) (*fleetRig, error) {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.outDir, "fleet-")
	if err != nil {
		return nil, err
	}
	g := &fleetRig{r: r, rec: rec, dir: dir, commits: make(chan commitStamp, 2*len(siteNames)), // one in-flight epoch, twice over
		episodes: map[string]time.Time{}, client: &http.Client{Timeout: commitTimeout}}
	ctl := flight.Default().Control()

	if g.st, err = store.Open(dir, store.Options{}); err != nil {
		return nil, err
	}
	g.st.SetFlight(ctl)
	if g.coll, err = export.NewCollector("127.0.0.1:0", nil); err != nil {
		return nil, err
	}
	g.coll.SetFlight(ctl)
	g.coll.SetSink(func(b export.Batch) {
		t0 := time.Now()
		g.st.Append(b.Epoch, b.Records, export.TableStats{}) //nolint:errcheck // as the root sink: store errors surface in its stats
		t1 := time.Now()
		g.commits <- commitStamp{site: siteIndex(b.Site), deliver: t0, done: t1}
		g.rec.add("store.append", g.span(b.Epoch), int(b.Epoch), t0, t1, int64(len(b.Records)))
	})

	det, err := detect.NewStreamDetector(detect.StreamConfig{Kind: detect.KindDDoSVictim, Threshold: ddosThreshold})
	if err != nil {
		return nil, err
	}
	g.agg, err = fleet.New(fleet.Config{Detectors: []*detect.StreamDetector{det}, OnAlert: func(al detect.Alert) {
		now := time.Now()
		g.mu.Lock()
		g.alerts = append(g.alerts, alertStamp{host: al.Host, at: now})
		g.mu.Unlock()
	}})
	if err != nil {
		return nil, err
	}
	g.agg.SetFlight(ctl)
	g.coll.AddHook(func(b export.Batch) {
		t0 := time.Now()
		g.agg.Ingest(b)
		g.rec.add("fleet.ingest", g.span(b.Epoch), int(b.Epoch), t0, time.Now(), int64(len(b.Records)))
		g.ingested.Add(1)
	})

	reg := telemetry.NewRegistry("instameasure", 1)
	telemetry.RegisterRuntimeMetrics(reg)
	if g.srv, err = telemetry.NewServer("127.0.0.1:0", reg); err != nil {
		return nil, err
	}
	g.st.Instrument(reg)
	g.agg.Instrument(reg)
	g.srv.Handle("/flows/", store.NewQueryAPI(g.st))
	g.srv.Handle("/fleet/", fleet.NewAPI(g.agg))

	for i, name := range siteNames {
		e, err := export.Dial(g.coll.Addr())
		if err != nil {
			return nil, err
		}
		if err := e.WithSite(name); err != nil {
			return nil, err
		}
		e.SetFlight(ctl)
		g.exps = append(g.exps, e)
		g.sites = append(g.sites, newFleetSite(r.seed, i, name, fleetRecords/r.shrink))
	}
	return g, nil
}

func siteIndex(name string) int {
	for i, n := range siteNames {
		if n == name {
			return i
		}
	}
	return 0
}

func (g *fleetRig) span(epoch int64) int32 {
	if id, ok := g.spans.Load(epoch); ok {
		return id.(int32)
	}
	return -1
}

// close stops every goroutine the rig started and removes its files.
func (g *fleetRig) close() {
	for _, e := range g.exps {
		e.Close() //nolint:errcheck // teardown
	}
	g.client.CloseIdleConnections()
	g.coll.Close() //nolint:errcheck // teardown
	g.srv.Close()  //nolint:errcheck // teardown
	g.st.Close()   //nolint:errcheck // teardown; already closed after a reopen scan
	os.RemoveAll(g.dir)
}

func victimHost(epoch int64) string {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], victim(epoch))
	return netip.AddrFrom4(b).String()
}

// epochResult is one closed-loop epoch: both sites exported and committed.
type epochResult struct {
	wallS   float64 // first Export start → last commit
	records int
	commitS []float64 // per batch: Export start → store.Append returned
}

// step advances both sites one epoch, exports each from this goroutine,
// and waits for both commits: one epoch in flight.
func (g *fleetRig) step(parent int32) (epochResult, error) {
	g.epoch++
	e := g.epoch
	attack := e%attackEvery == 0
	snaps := make([]siteSnap, len(g.sites))
	for i, s := range g.sites {
		s.advance(e, attack && i == 0)
		snaps[i] = siteSnap{pkts: make([]float64, s.base), bytes: make([]float64, s.base)}
		for j := range s.records[:s.base] {
			snaps[i].pkts[j], snaps[i].bytes[j] = s.records[j].Pkts, s.records[j].Bytes
		}
	}
	g.history[e%int64(len(g.history))] = snaps

	span := g.rec.begin("epoch", parent, int(e))
	if g.rec != nil {
		g.spans.Store(e, span)
	}
	var res epochResult
	starts := make([]time.Time, len(g.sites))
	sent := 0
	for i, s := range g.sites {
		starts[i] = time.Now()
		if attack && i == 0 {
			g.episodes[victimHost(e)] = starts[i]
		}
		id := g.rec.begin("export.send", span, int(e))
		err := g.exps[i].Export(export.Batch{Epoch: e, Records: s.records})
		g.rec.end(id, 1)
		if err != nil {
			g.r.ops(1, 1)
			return res, fmt.Errorf("epoch %d: export from %s: %w", e, s.name, err)
		}
		sent++
		res.records += len(s.records)
	}
	g.exported.batches += int64(sent)
	g.exported.records += int64(res.records)
	timeout := time.After(commitTimeout)
	var last time.Time
	for got := 0; got < sent; got++ {
		select {
		case c := <-g.commits:
			res.commitS = append(res.commitS, c.done.Sub(starts[c.site]).Seconds())
			g.rec.add("export.deliver", span, int(e), starts[c.site], c.deliver, 1)
			last = c.done
			g.r.ops(1, 0)
		case <-timeout:
			g.r.ops(int64(sent-got), int64(sent-got))
			return res, fmt.Errorf("epoch %d: %d of %d batches not committed within %v", e, sent-got, sent, commitTimeout)
		}
	}
	g.rec.end(span, int64(res.records))
	res.wallS = last.Sub(starts[0]).Seconds()
	return res, nil
}

// truth is a background flow's exact traffic inside [from, to], from the
// counters the generator exported.
func (g *fleetRig) truth(k *packet.FlowKey, from, to int64, byBytes bool) float64 {
	src := binary.BigEndian.Uint32(k.SrcIP[:4])
	site, i := int(src>>22&3), int(src&(1<<22-1))
	if src>>24 != 0x0A || site >= len(g.sites) || i >= g.sites[site].base {
		return 0 // an attack source: two packets once, never a top flow
	}
	at := func(e int64) float64 {
		s := g.history[e%int64(len(g.history))][site]
		if byBytes {
			return s.bytes[i]
		}
		return s.pkts[i]
	}
	if from <= 1 {
		return at(to)
	}
	return at(to) - at(from-1)
}

// query is one HTTP GET /flows/topk over the last fleetWindow epochs and
// returns its round-trip time. Every verifyEvery-th answer is compared,
// row for row, with a direct FlowStore.TopK and with the exact truth.
func (g *fleetRig) query() (float64, error) {
	to := g.epoch
	from := max(1, to-fleetWindow+1)
	byBytes := g.queries%2 == 1
	by := "packets"
	if byBytes {
		by = "bytes"
	}
	verify := g.queries%verifyEvery == 0
	g.queries++
	url := fmt.Sprintf("http://%s/flows/topk?k=%d&by=%s&from=%d&to=%d", g.srv.Addr(), fleetK, by, from, to)
	t0 := time.Now()
	resp, err := g.client.Get(url)
	if err != nil {
		g.r.ops(1, 1)
		return 0, fmt.Errorf("query %s: %w", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0).Seconds()
	if err != nil || resp.StatusCode != http.StatusOK {
		g.r.ops(1, 1)
		return rtt, fmt.Errorf("query %s: status %d, read error %v", url, resp.StatusCode, err)
	}
	g.r.ops(1, 0)
	if !verify {
		return rtt, nil
	}
	var ans struct {
		Flows []struct {
			ID          string
			Pkts, Bytes float64
		}
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return rtt, fmt.Errorf("query %s: %w", url, err)
	}
	direct, err := g.st.TopK(store.Window{From: from, To: to}, fleetK, byBytes)
	same := err == nil && len(direct) == len(ans.Flows) && len(direct) > 0
	for i := 0; same && i < len(direct); i++ {
		d, a := &direct[i], &ans.Flows[i]
		same = a.ID == fmt.Sprintf("%016x", d.Key.Hash64(0)) && a.Pkts == d.Pkts && a.Bytes == d.Bytes
		got := d.Pkts
		if byBytes {
			got = d.Bytes
		}
		want := g.truth(&d.Key, from, to, byBytes)
		g.truthSum += want
		if got > want {
			g.absErr += got - want
		} else {
			g.absErr += want - got
		}
	}
	g.r.check(same, "epochs %d-%d by %s: HTTP top-k differs from a direct FlowStore.TopK (%v)", from, to, by, err)
	return rtt, nil
}

// drain waits until the fleet tier has ingested every committed batch, so
// its alerts and counters can be checked.
func (g *fleetRig) drain() {
	for deadline := time.Now().Add(commitTimeout); g.ingested.Load() < g.exported.batches && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// verify checks the run against what the generator exported, and returns
// the cut→alert delay of every episode that alerted.
func (g *fleetRig) verify() (alertS []float64) {
	g.drain()
	r := g.r
	r.check(g.ingested.Load() == g.exported.batches, "fleet ingested %d of %d batches", g.ingested.Load(), g.exported.batches)
	r.check(len(g.st.Epochs()) == int(g.epoch), "store holds %d epochs after %d were exported", len(g.st.Epochs()), g.epoch)
	batches, records := g.coll.Stats()
	r.check(int64(batches) == g.exported.batches && int64(records) == g.exported.records,
		"collector merged %d batches / %d records, exporters sent %d / %d", batches, records, g.exported.batches, g.exported.records)
	g.mu.Lock()
	defer g.mu.Unlock()
	fired := map[string]int{}
	for _, a := range g.alerts {
		fired[a.host]++
		if start, ok := g.episodes[a.host]; ok && fired[a.host] == 1 {
			alertS = append(alertS, a.at.Sub(start).Seconds())
		}
	}
	for host := range g.episodes {
		r.check(fired[host] == 1, "DDoS episode on %s raised %d alerts, want exactly 1", host, fired[host])
		delete(fired, host)
	}
	r.check(len(fired) == 0, "alerts named hosts that were never attacked: %v", fired)
	if g.truthSum > 0 {
		r.check(g.absErr == 0, "top-k answers are off the exported truth by %g of %g", g.absErr, g.truthSum)
	}
	return alertS
}

type fleetNumbers struct {
	setupS                        float64
	epochS, rate, commitS, queryS []float64
	alertS                        []float64
	accuracy                      float64
	exported, epochs              int64
	// store is the store's own ledger, read once the traced loop ends.
	store map[string]float64
}

// setupFleet opens the whole control plane and exports the warm-up epochs:
// listener, store, HTTP endpoint and dials, then enough history for a full
// query window, one DDoS episode included.
func (r *run) setupFleet(rec *recorder) (*fleetRig, error) {
	g, err := r.openFleet(rec)
	if err != nil {
		return nil, err
	}
	for g.epoch < fleetWarmup {
		if _, err := g.step(-1); err != nil {
			g.close()
			return nil, err
		}
	}
	if _, err := g.query(); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// measureFleet runs setupRepeats set-ups and then closed-loop epochs for
// the given wall time, one top-k query after each. extra, when set, runs
// after every epoch (the traced run's layer replays).
func (r *run) measureFleet(rec *recorder, seconds float64, extra func(g *fleetRig) error) (*fleetNumbers, error) {
	var g *fleetRig
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if g != nil {
			g.verify()
			g.close()
		}
		t0 := time.Now()
		var err error
		if g, err = r.setupFleet(rec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer g.close()

	out := &fleetNumbers{setupS: median(setups)}
	root := rec.begin(r.workload, -1, 0)
	start := time.Now()
	for first := true; first || time.Since(start).Seconds() < seconds; first = false {
		ep, err := g.step(root)
		if err != nil {
			return nil, err
		}
		out.epochS = append(out.epochS, ep.wallS)
		out.rate = append(out.rate, float64(ep.records)/ep.wallS)
		out.commitS = append(out.commitS, ep.commitS...)
		q, err := g.query()
		if err != nil {
			return nil, err
		}
		out.queryS = append(out.queryS, q)
		if extra != nil {
			if err := extra(g); err != nil {
				return nil, err
			}
		}
	}
	rec.end(root, g.exported.records)
	out.alertS = g.verify()
	out.accuracy = 1
	if g.truthSum > 0 {
		out.accuracy = 1 - g.absErr/g.truthSum
	}
	out.exported, out.epochs = g.exported.batches, g.epoch
	if extra != nil {
		out.store = r.fleetStoreLedger(g)
	}
	return out, nil
}

func (r *run) runFleet() (map[string]float64, error) {
	if r.rec == nil {
		n, err := r.measureFleet(nil, r.seconds, nil)
		if err != nil {
			return nil, err
		}
		return endToEndVals(n.setupS, median(n.rate), n.commitS, n.queryS, n.accuracy), nil
	}

	// Traced: a quarter of the time is the untraced reference, the rest
	// the same loop with a span at every boundary the benchmark can see
	// and, after each epoch, the coarse layers replayed on that epoch's
	// own batch.
	ref, err := r.measureFleet(nil, r.seconds/4, nil)
	if err != nil {
		return nil, err
	}
	lr := &layerReplay{r: r}
	n, err := r.measureFleet(r.rec, 3*r.seconds/4, lr.after)
	if err != nil {
		return nil, err
	}
	vals := n.store
	tailVals(vals, ref.commitS, ref.queryS)
	rec := r.rec
	ms := func(name string) float64 { return median(rec.durations(name)) / 1e6 }
	vals["export.encode_ns_per_rec"] = rec.rate("export.encode")
	vals["export.decode_ns_per_rec"] = rec.rate("export.decode")
	vals["export.bytes_per_rec"] = lr.bytesPerRec
	vals["export.send_ms_per_batch"] = ms("export.send")
	vals["export.deliver_ms_per_batch"] = ms("export.deliver")
	vals["export.failed_batches"] = float64(int64(len(siteNames))*n.epochs - n.exported)
	vals["store.append_ns_per_rec"] = rec.rate("store.append")
	vals["store.topk_ms"] = ms("store.topk")
	vals["store.timeline_ms"] = ms("store.timeline")
	vals["store.changers_ms"] = ms("store.changers")
	vals["fleet.ingest_ns_per_rec"] = rec.rate("fleet.ingest")
	vals["fleet.topk_ms"] = ms("fleet.topk")
	vals["fleet.alerts"] = float64(len(ref.alertS) + len(n.alertS))
	vals["fleet.cut_to_alert_ms_p50"] = 1e3 * median(ref.alertS)
	vals["fleet.commit_residual_ms"] = 1e3*median(n.commitS) - (ms("export.deliver") + ms("store.append"))
	vals["fleet.alert_residual_ms"] = 1e3*median(n.alertS) - (ms("export.deliver") + ms("store.append") + ms("fleet.ingest"))
	vals["detect.observe_ns_per_rec"] = rec.rate("detect.observe")
	vals["detect.groups"] = float64(lr.det.Stats().Keys)
	vals["telemetry.scrape_ms"] = ms("telemetry.scrape")
	vals["trace.overhead_ratio"] = median(n.epochS)/median(ref.epochS) - 1
	return vals, nil
}

// layerReplay re-runs the coarse layers on the epoch that just committed,
// one span per call, outside the epoch's own span.
type layerReplay struct {
	r           *run
	det         *detect.StreamDetector
	buf         bytes.Buffer
	bytesPerRec float64
}

func (l *layerReplay) after(g *fleetRig) error {
	rec, e := g.rec, g.epoch
	if l.det == nil {
		var err error
		if l.det, err = detect.NewStreamDetector(detect.StreamConfig{Kind: detect.KindDDoSVictim, Threshold: ddosThreshold}); err != nil {
			return err
		}
	}
	recs := g.sites[0].records
	n := int64(len(recs))
	batch := export.Batch{Epoch: e, Site: siteNames[0], Records: recs}

	l.buf.Reset()
	id := rec.begin("export.encode", -1, int(e))
	err := export.WriteBatch(&l.buf, batch)
	rec.end(id, n)
	if err != nil {
		return err
	}
	l.bytesPerRec = float64(l.buf.Len()) / float64(n)
	id = rec.begin("export.decode", -1, int(e))
	back, err := export.ReadBatch(bytes.NewReader(l.buf.Bytes()))
	rec.end(id, n)
	l.r.check(err == nil && len(back.Records) == len(recs), "epoch %d: codec round trip returned %d of %d records (%v)", e, len(back.Records), len(recs), err)

	var alerts []detect.Alert
	id = rec.begin("detect.observe", -1, int(e))
	for i := range recs {
		alerts = l.det.Observe(siteNames[0], &recs[i], 1, e, alerts[:0])
	}
	rec.end(id, n)
	l.det.Rotate()

	win := store.Window{From: max(1, e-fleetWindow+1), To: e}
	id = rec.begin("store.topk", -1, int(e))
	_, err = g.st.TopK(win, fleetK, false)
	rec.end(id, 1)
	if err != nil {
		return err
	}
	id = rec.begin("fleet.topk", -1, int(e))
	g.agg.TopK(fleetK, false)
	rec.end(id, 1)
	if e%attackEvery != 0 {
		return nil
	}
	id = rec.begin("store.timeline", -1, int(e))
	_, err = g.st.Timeline(recs[0].Key, win)
	rec.end(id, 1)
	if err != nil {
		return err
	}
	if older, newer, ok := g.st.DefaultChangerWindows(); ok {
		id = rec.begin("store.changers", -1, int(e))
		_, err = g.st.HeavyChangers(older, newer, fleetK, false)
		rec.end(id, 1)
		if err != nil {
			return err
		}
	}
	id = rec.begin("telemetry.scrape", -1, int(e))
	resp, err := g.client.Get("http://" + g.srv.Addr() + "/metrics")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rec.end(id, 1)
	return err
}

// fleetStoreLedger reads the store's size counters, then closes and
// reopens it once to time the recovery scan.
func (r *run) fleetStoreLedger(g *fleetRig) map[string]float64 {
	st := g.st.Stats()
	vals := map[string]float64{
		"store.bytes_per_rec": float64(st.Bytes) / float64(max(st.Flows, 1)),
		"store.segments":      float64(st.Segments),
	}
	err := g.st.Close()
	r.check(err == nil, "store close: %v", err)
	t0 := time.Now()
	reopened, err := store.Open(g.dir, store.Options{})
	vals["store.reopen_scan_ms"] = 1e3 * time.Since(t0).Seconds()
	r.check(err == nil, "store reopen: %v", err)
	if err == nil {
		r.check(len(reopened.Epochs()) == int(g.epoch), "reopened store holds %d epochs, want %d", len(reopened.Epochs()), g.epoch)
		reopened.Close() //nolint:errcheck // nothing was written since the reopen
	}
	return vals
}
