package main

import (
	"io"
	"strings"
	"testing"
)

func fp(v float64) *float64 { return &v }

func TestParseLineMetrics(t *testing.T) {
	name, res, err := parseLine(
		"BenchmarkPipelineScaling/w8-8   \t 3\t 41234567 ns/op\t 52.60 Mpps\t 0.7363 scaling_eff\t 12 B/op\t 0 allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	if name != "BenchmarkPipelineScaling/w8" {
		t.Errorf("name = %q", name)
	}
	if res.MPPS == nil || *res.MPPS != 52.60 {
		t.Errorf("MPPS = %v, want 52.60", res.MPPS)
	}
	if res.ScalingEff == nil || *res.ScalingEff != 0.7363 {
		t.Errorf("ScalingEff = %v, want 0.7363", res.ScalingEff)
	}
	if res.AllocsOp == nil || *res.AllocsOp != 0 {
		t.Errorf("AllocsOp = %v, want 0", res.AllocsOp)
	}
}

func TestGuardPassesWithinBand(t *testing.T) {
	doc := Document{
		Results: map[string]Result{
			"BenchmarkPipelineScaling/w8": {MPPS: fp(48.0), ScalingEff: fp(0.70)},
			"BenchmarkNoBaseline":         {MPPS: fp(1.0)},
		},
		Baseline: map[string]Result{
			"BenchmarkPipelineScaling/w8": {MPPS: fp(52.0)},
		},
	}
	if err := checkGuard(doc, 0.10, 0.60, 0.10); err != nil {
		t.Fatalf("guard failed inside the band: %v", err)
	}
}

func TestGuardFailsOnMppsRegression(t *testing.T) {
	doc := Document{
		Results:  map[string]Result{"B": {MPPS: fp(40.0)}},
		Baseline: map[string]Result{"B": {MPPS: fp(52.0)}},
	}
	err := checkGuard(doc, 0.10, 0.60, 0.10)
	if err == nil || !strings.Contains(err.Error(), "below guard") {
		t.Fatalf("want Mpps guard failure, got %v", err)
	}
}

func TestGuardFailsOnLowEfficiency(t *testing.T) {
	doc := Document{
		Results: map[string]Result{"B": {ScalingEff: fp(0.41)}},
	}
	err := checkGuard(doc, 0.10, 0.60, 0.10)
	if err == nil || !strings.Contains(err.Error(), "below floor") {
		t.Fatalf("want efficiency guard failure, got %v", err)
	}
}

func TestParseLineCacheHitRate(t *testing.T) {
	_, res, err := parseLine(
		"BenchmarkProcessBatchCachedPerPacket-8 	 7602205	 67.83 ns/op	 14.74 Mpps	 0.7440 cache_hit_rate	 0 B/op	 0 allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHitRate == nil || *res.CacheHitRate != 0.7440 {
		t.Errorf("CacheHitRate = %v, want 0.7440", res.CacheHitRate)
	}
}

func TestGuardFailsOnCachedNsRise(t *testing.T) {
	doc := Document{
		Results: map[string]Result{
			"BenchmarkProcessBatchCachedPerPacket": {NsPerOp: 90, CacheHitRate: fp(0.74)},
		},
		Baseline: map[string]Result{
			"BenchmarkProcessBatchCachedPerPacket": {NsPerOp: 68, CacheHitRate: fp(0.75)},
		},
	}
	err := checkGuard(doc, 0.10, 0.60, 0.10)
	if err == nil || !strings.Contains(err.Error(), "above guard") {
		t.Fatalf("want ns/op rise guard failure, got %v", err)
	}
	// Within the rise band the same pair passes.
	doc.Results["BenchmarkProcessBatchCachedPerPacket"] = Result{NsPerOp: 70, CacheHitRate: fp(0.74)}
	if err := checkGuard(doc, 0.10, 0.60, 0.10); err != nil {
		t.Fatalf("guard failed inside the rise band: %v", err)
	}
	// Benchmarks without a cache hit rate are exempt from the ns/op gate.
	doc.Results["BenchmarkProcessBatchCachedPerPacket"] = Result{NsPerOp: 500}
	if err := checkGuard(doc, 0.10, 0.60, 0.10); err != nil {
		t.Fatalf("uncached benchmark hit the ns/op gate: %v", err)
	}
}

// TestGuardEffFloorUpToGOMAXPROCS: the efficiency floor holds a worker row
// only when the run had a core per worker. On GOMAXPROCS 2, w8 at 0.528
// is archived and passes; w2 below the floor fails; and the same w8 row
// from an 8-core run fails too.
func TestGuardEffFloorUpToGOMAXPROCS(t *testing.T) {
	parse := func(lines ...string) Document {
		doc := Document{Results: map[string]Result{}}
		for _, line := range lines {
			name, res, err := parseLine(line)
			if err != nil {
				t.Fatal(err)
			}
			doc.Results[name] = res
		}
		return doc
	}
	const (
		w2ok  = "BenchmarkPipelineScaling/w2-2 \t 2\t 1000 ns/op\t 9.1 Mpps\t 0.78 scaling_eff"
		w2low = "BenchmarkPipelineScaling/w2-2 \t 2\t 1000 ns/op\t 9.1 Mpps\t 0.50 scaling_eff"
		w8on2 = "BenchmarkPipelineScaling/w8-2 \t 2\t 1000 ns/op\t 9.1 Mpps\t 0.528 scaling_eff"
		w8on8 = "BenchmarkPipelineScaling/w8-8 \t 2\t 1000 ns/op\t 9.1 Mpps\t 0.528 scaling_eff"
	)
	doc := parse(w2ok, w8on2)
	if err := checkGuard(doc, 0.10, 0.55, 0.10); err != nil {
		t.Errorf("w8 on 2 cores is above GOMAXPROCS and must not be gated: %v", err)
	}
	if _, ok := doc.Results["BenchmarkPipelineScaling/w8"]; !ok {
		t.Error("the ungated w8 row must still be archived")
	}
	for _, lines := range [][]string{{w2low, w8on2}, {w2ok, w8on8}} {
		err := checkGuard(parse(lines...), 0.10, 0.55, 0.10)
		if err == nil || !strings.Contains(err.Error(), "below floor") {
			t.Errorf("%q: want an efficiency guard failure, got %v", lines, err)
		}
	}
}

// TestGuardHoldsTheMedianRun: of three runs of a row (go test -count 3),
// the guard holds the median by ns/op. One slow outlier among three no
// longer fails it; a median below the band still does.
func TestGuardHoldsTheMedianRun(t *testing.T) {
	base := map[string]Result{"BenchmarkExportSnapshot": {MPPS: fp(10)}}
	guard := func(lines ...string) error {
		t.Helper()
		doc, err := read(strings.NewReader(strings.Join(lines, "\n")), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		doc.Baseline = base
		return checkGuard(doc, 0.10, 0.60, 0.10)
	}
	if err := guard(
		"BenchmarkExportSnapshot-2 	 1000	 100000 ns/op	 10.0 Mpps",
		"BenchmarkExportSnapshot-2 	 1000	 250000 ns/op	 4.0 Mpps",
		"BenchmarkExportSnapshot-2 	 1000	 98000 ns/op	 10.2 Mpps",
	); err != nil {
		t.Fatalf("one outlier among three runs failed the guard: %v", err)
	}
	err := guard(
		"BenchmarkExportSnapshot-2 	 1000	 100000 ns/op	 10.0 Mpps",
		"BenchmarkExportSnapshot-2 	 1000	 125000 ns/op	 8.0 Mpps",
		"BenchmarkExportSnapshot-2 	 1000	 130000 ns/op	 7.7 Mpps",
	)
	if err == nil || !strings.Contains(err.Error(), "8.00 Mpps below guard") {
		t.Fatalf("want the median run (8.00 Mpps) to fail the guard, got %v", err)
	}
}
