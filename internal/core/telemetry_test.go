package core

import (
	"strings"
	"testing"

	"instameasure/internal/packet"
	"instameasure/internal/telemetry"
	"instameasure/internal/trace"
)

func TestEngineTelemetryWiring(t *testing.T) {
	tr, err := trace.GenerateZipf(trace.ZipfConfig{Flows: 2000, TotalPackets: 100_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, Config{SketchMemoryBytes: 8 << 10, WSAFEntries: 1 << 14, Seed: 3})
	for i := range tr.Packets {
		eng.Process(tr.Packets[i])
	}
	eng.FlushTelemetry()
	reg := eng.Telemetry()

	if got := reg.Value("instameasure_packets_total"); got != float64(len(tr.Packets)) {
		t.Errorf("packets_total = %g, want %d", got, len(tr.Packets))
	}
	if got := reg.Value("instameasure_wsaf_delegations_total"); got != float64(eng.Regulator().Emissions()) {
		t.Errorf("wsaf_delegations_total = %g, want %d", got, eng.Regulator().Emissions())
	}
	if got := reg.Value("instameasure_l1_recycles_total"); got <= 0 {
		t.Error("l1_recycles_total never incremented on a saturating workload")
	}
	if got := reg.Value("instameasure_wsaf_occupancy"); got != float64(eng.Table().Len()) {
		t.Errorf("wsaf_occupancy = %g, want table len %d", got, eng.Table().Len())
	}
	// Per-outcome WSAF ops sum to the delegation count (every delegation
	// is exactly one accumulate).
	if got := reg.Value("instameasure_wsaf_ops_total"); got != float64(eng.Regulator().Emissions()) {
		t.Errorf("wsaf_ops_total = %g, want %d", got, eng.Regulator().Emissions())
	}
	// Derived ratios agree with the regulator's own arithmetic.
	wantRate := eng.Regulator().RegulationRate()
	if got := reg.Value("instameasure_regulation_ratio"); got != wantRate {
		t.Errorf("regulation_ratio = %g, want %g", got, wantRate)
	}
	if got := reg.Value("instameasure_absorption_ratio"); got != 1-wantRate {
		t.Errorf("absorption_ratio = %g, want %g", got, 1-wantRate)
	}

	out := reg.RenderPrometheus()
	for _, want := range []string{
		"instameasure_packets_total",
		"instameasure_wsaf_probe_length_bucket",
		"instameasure_l1_recycles_total",
		`instameasure_wsaf_ops_total{outcome="inserted"}`,
		"instameasure_process_latency_ns_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// Latency is sampled 1-in-1024.
	wantSamples := float64(len(tr.Packets) / latencySamplePeriod)
	h := reg.Histogram("process_latency_ns", "", 24)
	if got := float64(h.Count()); got != wantSamples {
		t.Errorf("latency samples = %g, want %g", got, wantSamples)
	}
}

func TestTelemetryCumulativeAcrossReset(t *testing.T) {
	eng := testEngine(t, Config{SketchMemoryBytes: 8 << 10, WSAFEntries: 1 << 12, Seed: 1})
	key := packet.V4Key(1, 2, 3, 4, packet.ProtoTCP)
	for i := 0; i < 100; i++ {
		eng.Process(packet.Packet{Key: key, Len: 100, TS: int64(i)})
	}
	eng.FlushTelemetry()
	reg := eng.Telemetry()
	if got := reg.Value("instameasure_packets_total"); got != 100 {
		t.Fatalf("pre-reset packets_total = %g, want 100", got)
	}
	eng.Reset()
	if got := reg.Value("instameasure_packets_total"); got != 100 {
		t.Errorf("post-reset packets_total = %g, want cumulative 100", got)
	}
	if got := reg.Value("instameasure_wsaf_occupancy"); got != 0 {
		t.Errorf("post-reset occupancy = %g, want 0", got)
	}
	for i := 0; i < 50; i++ {
		eng.Process(packet.Packet{Key: key, Len: 100, TS: int64(i)})
	}
	eng.FlushTelemetry()
	if got := reg.Value("instameasure_packets_total"); got != 150 {
		t.Errorf("packets_total after second window = %g, want 150", got)
	}
}

func TestSharedRegistryTwoEngines(t *testing.T) {
	reg := telemetry.NewRegistry("instameasure", 2)
	key := packet.V4Key(9, 9, 9, 9, packet.ProtoUDP)
	for w := 0; w < 2; w++ {
		eng, err := New(Config{
			SketchMemoryBytes: 8 << 10, WSAFEntries: 1 << 12,
			Seed: uint64(w + 1), Telemetry: reg, Worker: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 70; i++ {
			eng.Process(packet.Packet{Key: key, Len: 60, TS: int64(i)})
		}
		eng.FlushTelemetry()
	}
	if got := reg.Value("instameasure_packets_total"); got != 140 {
		t.Errorf("shared packets_total = %g, want 140 (both workers)", got)
	}
}
