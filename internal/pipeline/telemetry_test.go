package pipeline

import (
	"strings"
	"testing"
)

func TestReportImbalance(t *testing.T) {
	cases := []struct {
		name    string
		queued  []uint64
		dropped []uint64
		want    float64
	}{
		{"empty", nil, nil, 0},
		{"all zero", []uint64{0, 0}, []uint64{0, 0}, 0},
		{"balanced", []uint64{100, 100, 100, 100}, nil, 1.0},
		{"one hot worker", []uint64{300, 100, 100, 100}, nil, 2.0},
		{"drops count as offered load", []uint64{100, 100}, []uint64{100, 0}, 4.0 / 3},
	}
	for _, c := range cases {
		rep := Report{Queued: c.queued, Dropped: c.dropped}
		if got := rep.Imbalance(); got != c.want {
			t.Errorf("%s: Imbalance() = %g, want %g", c.name, got, c.want)
		}
	}
}

// TestImbalanceSprayVsPopcount is the satellite ablation: spraying packets
// regardless of flow spreads offered load near-perfectly while popcount
// sharding inherits the binomial skew of bit counts in source addresses.
func TestImbalanceSprayVsPopcount(t *testing.T) {
	tr := testTrace(t, 3000, 60_000)

	run := func(policy HashShardFunc) Report {
		t.Helper()
		cfg := testConfig(4)
		cfg.HashPolicy = policy
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run(tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	rr := run(sprayShard)
	pc := run(PopcountShard)

	if rr.Imbalance() > 1.03 {
		t.Errorf("spray imbalance = %.4f, want ~1.0", rr.Imbalance())
	}
	if pc.Imbalance() <= rr.Imbalance() {
		t.Errorf("popcount imbalance %.4f not worse than spray %.4f",
			pc.Imbalance(), rr.Imbalance())
	}
	if pc.Imbalance() < 1.05 {
		t.Errorf("popcount imbalance = %.4f, expected visible binomial skew", pc.Imbalance())
	}
}

func TestLosslessRunHasNoDrops(t *testing.T) {
	tr := testTrace(t, 1000, 30_000)
	sys, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	for w, d := range rep.Dropped {
		if d != 0 {
			t.Errorf("worker %d dropped %d packets on the lossless path", w, d)
		}
	}
	var queued uint64
	for _, q := range rep.Queued {
		queued += q
	}
	if queued != rep.Packets {
		t.Errorf("queued %d != packets %d", queued, rep.Packets)
	}
}

func TestPipelineTelemetryRendering(t *testing.T) {
	tr := testTrace(t, 1000, 40_000)
	sys, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	out := sys.Telemetry().RenderPrometheus()
	for _, want := range []string{
		"instameasure_packets_total ",
		`instameasure_worker_packets_total{worker="0"}`,
		`instameasure_worker_packets_total{worker="1"}`,
		`instameasure_worker_queue_depth{worker="0"}`,
		"instameasure_shard_imbalance ",
		"instameasure_wsaf_probe_length_bucket",
		"instameasure_l1_recycles_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if got := sys.Telemetry().Value("instameasure_packets_total"); got != float64(rep.Packets) {
		t.Errorf("packets_total = %g, want %d (flush on worker exit)", got, rep.Packets)
	}
	// shard_imbalance gauge agrees with the report.
	gauge := sys.Telemetry().Value("instameasure_shard_imbalance")
	if want := rep.Imbalance(); gauge != want {
		t.Errorf("shard_imbalance gauge = %g, report = %g", gauge, want)
	}
}
