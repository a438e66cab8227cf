package instameasure

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMeterTelemetryRendering is the acceptance check for the public
// telemetry surface: a processed meter renders valid Prometheus text
// containing the headline series.
func TestMeterTelemetryRendering(t *testing.T) {
	tr := testTrace(t)
	m := testMeter(t)
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	tm := m.Telemetry()

	var buf bytes.Buffer
	if err := tm.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"instameasure_packets_total",
		"instameasure_wsaf_probe_length_bucket",
		"instameasure_l1_recycles_total",
		"instameasure_regulation_ratio",
		"instameasure_wsaf_occupancy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q", want)
		}
	}
	// Every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	st := m.Stats()
	if got := tm.Value("instameasure_packets_total"); got != float64(st.Packets) {
		t.Errorf("packets_total = %g, want %d", got, st.Packets)
	}
	names := tm.MetricNames()
	if len(names) == 0 {
		t.Fatal("MetricNames empty")
	}
	seen := false
	tm.Each(func(series string, _ float64) {
		if strings.HasPrefix(series, "instameasure_packets_total") {
			seen = true
		}
	})
	if !seen {
		t.Error("Each never visited packets_total")
	}
}

func TestTelemetryServeEndToEnd(t *testing.T) {
	tr := testTrace(t)
	m := testMeter(t)
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	srv, err := m.Telemetry().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"instameasure_packets_total",
		"instameasure_wsaf_probe_length_bucket",
		"instameasure_l1_recycles_total",
		"instameasure_goroutines", // runtime metrics registered by Serve
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestClusterTelemetryShared(t *testing.T) {
	tr := testTrace(t)
	c, err := NewCluster(ClusterConfig{
		Meter:   Config{SketchMemoryBytes: 16 << 10, WSAFEntries: 1 << 14, Seed: 5},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	tm := c.Telemetry()
	if got := tm.Value("instameasure_packets_total"); got != float64(rep.Packets) {
		t.Errorf("cluster packets_total = %g, want %d", got, rep.Packets)
	}
	out := new(strings.Builder)
	if err := tm.WritePrometheus(out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `instameasure_worker_packets_total{worker="1"}`) {
		t.Error("per-worker series missing from cluster registry")
	}
}

func TestStatsSplitsEvictionsAndExpirations(t *testing.T) {
	// A small TTL'd table under a large workload exercises both
	// second-chance evictions and inline expirations.
	tr := testTrace(t)
	m, err := New(Config{
		SketchMemoryBytes: 8 << 10, WSAFEntries: 1 << 8,
		WSAFTTLNanos: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.WSAFEvictions == 0 && st.WSAFExpirations == 0 {
		t.Error("tiny TTL'd table produced neither evictions nor expirations")
	}
}

func TestSnapshotDetailRoundTrip(t *testing.T) {
	tr := testTrace(t)
	m := testMeter(t)
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.ExportSnapshot(&buf, 9); err != nil {
		t.Fatal(err)
	}
	info, err := ReadSnapshotDetail(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasStats {
		t.Fatal("ExportSnapshot wrote no stats trailer")
	}
	if info.Epoch != 9 {
		t.Errorf("epoch = %d, want 9", info.Epoch)
	}
	st := m.Stats()
	if info.Stats.Evictions != st.WSAFEvictions || info.Stats.Expirations != st.WSAFExpirations {
		t.Errorf("trailer churn %+v disagrees with Stats (%d evictions / %d expirations)",
			info.Stats, st.WSAFEvictions, st.WSAFExpirations)
	}
	// The legacy reader still works on the same bytes.
	records, epoch, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 9 || len(records) != len(info.Records) {
		t.Errorf("legacy reader: epoch %d, %d records; want 9, %d", epoch, len(records), len(info.Records))
	}
}

// TestMetricCatalogListsEverySeries registers every series the process
// can serve — a meter with a hot cache and a store, an instrumented
// collector and exporter, a fleet that has alerted, the runtime gauges
// Serve adds — renders /metrics, and holds README's metric catalog to
// it: a registered series the catalog does not name fails, and so does a
// catalog entry nothing registers.
func TestMetricCatalogListsEverySeries(t *testing.T) {
	const bots = 300
	bg, err := GenerateZipfTrace(ZipfTraceConfig{Flows: 2000, TotalPackets: 40_000, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	atk, _, err := GenerateSpoofedDDoSTrace(SpoofedDDoSConfig{Sources: bots, PacketsPerSource: 48, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{SketchMemoryBytes: 32 << 10, WSAFEntries: 1 << 16, HotCacheEntries: 1024, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tel := m.Telemetry()
	fs, err := m.WithStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.Instrument(tel)

	coll, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	coll.Instrument(tel)
	fl, err := coll.EnableFleet(FleetConfig{DDoSSources: bots / 4})
	if err != nil {
		t.Fatal(err)
	}
	fl.Instrument(tel)
	exp, err := DialCollector(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	exp.Instrument(tel)
	if err := exp.WithSite("edge-1"); err != nil {
		t.Fatal(err)
	}

	if _, err := m.Run(MergeTraces(bg, atk).Source()); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
	if err := exp.ExportMeter(m, 1); err != nil {
		t.Fatal(err)
	}
	waitFleet(t, func() bool { return len(fl.Alerts(0, 1)) == 1 }, "the flood's alert")

	srv, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	served := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			served[strings.TrimPrefix(f[2], "instameasure_")] = true
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, _ := strings.Cut(string(readme), "Metric catalog")
	catalog, _, _ = strings.Cut(catalog, "\n#")
	listed := map[string]bool{}
	for _, line := range strings.Split(catalog, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, sub := range regexp.MustCompile("`([a-z0-9_]+)[{`]").FindAllStringSubmatch(cells[1], -1) {
			listed[sub[1]] = true
		}
	}

	for name := range served {
		if !listed[name] {
			t.Errorf("/metrics serves instameasure_%s, which README's metric catalog does not list", name)
		}
	}
	for name := range listed {
		if !served[name] {
			t.Errorf("README's metric catalog lists %s, which nothing registered", name)
		}
	}
}
