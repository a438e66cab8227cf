package oracle

import (
	"testing"

	"instameasure/internal/core"
	"instameasure/internal/trace"
)

// diffScale picks the differential workload size: the full acceptance run
// (≥1M packets × 3 seeds) in the default tier-1 mode, shrunk under -short
// and under the race detector where per-packet cost is ~10×.
func diffScale(t *testing.T) (flows, packets, seeds int) {
	if testing.Short() || raceEnabled {
		return 8_000, 150_000, 2
	}
	return 50_000, 1_050_000, 3
}

func genTrace(t *testing.T, flows, packets int, seed uint64) *trace.Trace {
	t.Helper()
	tr, err := trace.GenerateZipf(trace.ZipfConfig{
		Flows:        flows,
		TotalPackets: packets,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDifferentialOracle is the acceptance run: the full differential
// harness over ≥1M packets and ≥3 seeds must report zero invariant
// violations — batch ≡ scalar ≡ pipeline, conservation laws, export
// round-trip, and every above-floor flow inside the analytic envelope.
func TestDifferentialOracle(t *testing.T) {
	flows, packets, seeds := diffScale(t)
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			tr := genTrace(t, flows, packets, uint64(seed)*7919)
			rep, err := Run(tr, Config{
				Engine: core.Config{
					WSAFEntries: 1 << 15,
					Seed:        uint64(seed) * 1_000_003,
				},
				Workers: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
			if rep.Checked == 0 {
				t.Fatal("no flows above the retention floor; workload too small to test the envelope")
			}
			t.Logf("packets=%d flows=%d checked=%d stderr=%.4f mean=%.4f max=%.4f maxOverBound=%.2f",
				rep.Packets, rep.Flows, rep.Checked, rep.StdErr, rep.MeanRelErr, rep.MaxRelErr, rep.MaxOverBound)
			// The paper claims ≤0.65% std-err at full scale; at this scale
			// the aggregate must still be low even though individual small
			// flows sit near their envelope.
			if rep.StdErr > 0.25 {
				t.Errorf("aggregate std-err %.4f implausibly high", rep.StdErr)
			}
		})
	}
}

// TestDifferentialTTL runs the structural invariants with TTL enabled:
// no expired entries may leak from any snapshot, conservation holds, and
// the one-worker pipeline stays bit-identical to the batch engine.
func TestDifferentialTTL(t *testing.T) {
	flows, packets := 5_000, 120_000
	tr := genTrace(t, flows, packets, 42)
	rep, err := Run(tr, Config{
		Engine: core.Config{
			WSAFEntries: 1 << 12,
			WSAFTTL:     tr.Duration() / 10,
			Seed:        99,
		},
		Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Checked != 0 {
		t.Errorf("TTL run must skip envelope checks, checked %d flows", rep.Checked)
	}
}

// TestDifferentialSingleWorkerPipeline runs the harness at Workers: 1,
// where leg (e) degenerates to leg (d): every pipeline in the run is
// bit-identical to the batch engine (worker 0's seed derivation adds
// zero), and through it to the scalar one.
func TestDifferentialSingleWorkerPipeline(t *testing.T) {
	tr := genTrace(t, 3_000, 80_000, 7)
	rep, err := Run(tr, Config{
		Engine:  core.Config{WSAFEntries: 1 << 12, Seed: 5},
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}
