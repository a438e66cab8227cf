package experiments

import (
	"fmt"
	"math"
	"runtime"

	"instameasure/internal/core"
	"instameasure/internal/detect"
	"instameasure/internal/packet"
	"instameasure/internal/pipeline"
	"instameasure/internal/stats"
	"instameasure/internal/trace"
)

// Fig9aCoreScaling reproduces Fig. 9(a): processing throughput as worker
// cores scale 1→4 over a pre-loaded trace. The paper ran on an 8-core Atom
// board (18.9→46.3 Mpps for 1→4 cores) with its popcount dispatch; this
// reproduction runs the shared-nothing ingest under the same popcount
// policy. When the host has fewer physical cores than the sweep needs, the
// wall clock serializes the workers, so k-core throughput is modeled from
// per-worker busy time — total packets over the bottleneck worker's CPU
// time (Report.AggregateMPPS) — which is exactly the per-core capacity the
// paper's one-core-per-worker board realizes. Host wall-clock numbers are
// reported alongside, and so is the clock-free shape: the counted speedup
// total/max(per-worker packets), what k cores deliver when every packet
// costs the same, which only the shard policy and the trace decide.
func Fig9aCoreScaling(s Scale) (*Report, error) {
	tr, err := caidaTrace(s)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "Fig.9a",
		Title:  "Processing speed vs number of worker cores",
		Header: []string{"workers", "host Mpps", "aggregate Mpps", "speedup", "efficiency", "counted speedup", "imbalance"},
	}
	runOnce := func(workers int) (pipeline.Report, error) {
		sys, err := pipeline.New(pipeline.Config{
			Workers:    workers,
			HashPolicy: pipeline.PopcountShard,
			Engine: core.Config{
				SketchMemoryBytes: 32 << 10,
				WSAFEntries:       1 << 18,
				Seed:              s.Seed,
			},
		})
		if err != nil {
			return pipeline.Report{}, err
		}
		return sys.Run(tr.Source())
	}
	var base, topAgg, topEff float64
	for _, workers := range []int{1, 2, 3, 4} {
		// Best of two runs: in the busy-time capacity model scheduling
		// noise only subtracts, so the max is the better estimate.
		r1, err := runOnce(workers)
		if err != nil {
			return nil, err
		}
		r2, err := runOnce(workers)
		if err != nil {
			return nil, err
		}
		host := math.Max(r1.MPPS(), r2.MPPS())
		agg := math.Max(r1.AggregateMPPS(), r2.AggregateMPPS())
		if workers == 1 {
			base = agg
		}
		eff := agg / (float64(workers) * base)
		topAgg, topEff = agg, eff
		rep.AddRow(
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.2f", host),
			fmt.Sprintf("%.2f", agg),
			fmt.Sprintf("%.2fx", agg/base),
			fmt.Sprintf("%.2f", eff),
			// Exact and the same in both runs: the shard policy is a pure
			// function of the packet.
			fmt.Sprintf("%.2fx", float64(workers)/r1.Imbalance()),
			fmt.Sprintf("%.2f", r1.Imbalance()),
		)
	}
	rep.SetMetric("mpps", topAgg)
	rep.SetMetric("scaling_eff", topEff)
	rep.AddNote("host has %d core(s); aggregate column models one core per worker from per-worker busy time, as on the paper's 8-core board", runtime.NumCPU())
	rep.AddNote("shared-nothing ingest, popcount policy (paper-faithful); elephants pin their worker, so efficiency tracks the trace's flow-size skew")
	rep.AddNote("counted speedup = packets / busiest worker's packets: no clock in it, so it is the column the tests assert")
	rep.AddNote("paper (8-core Atom + DPDK): 18.9 / 25.5 / 36.2 / 46.3 Mpps for 1-4 cores — sub-linear, manager-bounded; shared-nothing ingest removes the manager bound")
	return rep, nil
}

// Fig9bDetectionLatency reproduces Fig. 9(b): heavy-hitter detection delay
// versus attacker transmission rate (10–200 kpps), comparing the paper's
// saturation-based decoding against the packet-arrival ground truth and
// the delegation (remote collector) discipline.
func Fig9bDetectionLatency(s Scale) (*Report, error) {
	rep := &Report{
		ID:     "Fig.9b",
		Title:  "Heavy-hitter detection latency vs attack rate",
		Header: []string{"rate (kpps)", "saturation-based", "delegation-based", "detected"},
	}

	const threshold = 500 // packets (0.05% of link capacity in the paper)
	const attackers = 8   // independent attack flows per rate, averaged
	rates := []float64{10e3, 30e3, 50e3, 100e3, 130e3, 200e3}
	for _, rate := range rates {
		// Run the attacks long enough to cross the threshold several
		// times over.
		duration := int64(threshold / rate * 20 * 1e9)
		if duration < 50e6 {
			duration = 50e6
		}
		var tr *trace.Trace
		var err error
		for a := 0; a < attackers; a++ {
			attack := packet.V4Key(0xAAAA0001+uint32(a), 0x0B0B0B0B, 4444, 80, packet.ProtoUDP)
			tr, err = trace.Inject(tr, trace.InjectConfig{
				Key:        attack,
				RatePPS:    rate,
				StartTS:    0,
				DurationNs: duration,
				Seed:       s.Seed + uint64(a),
			})
			if err != nil {
				return nil, err
			}
		}

		eng, err := core.New(core.Config{
			SketchMemoryBytes: 32 << 10,
			WSAFEntries:       1 << 14,
			Seed:              s.Seed,
		})
		if err != nil {
			return nil, err
		}
		det, err := detect.NewHeavyHitterDetector(threshold, 0)
		if err != nil {
			return nil, err
		}
		det.Attach(eng)
		for i := range tr.Packets {
			eng.Process(tr.Packets[i])
		}

		truth, err := detect.TruthCrossings(tr, threshold, 0)
		if err != nil {
			return nil, err
		}
		satLat := detect.Latencies(truth, det.PacketHitters())
		delegLat, err := detect.DelegationLatencies(truth, 20e6, 10e6) // 20ms epochs, 10ms RTT
		if err != nil {
			return nil, err
		}

		// Detection jitter is ± one saturation interval (the estimate can
		// overshoot and alarm one saturation early); the figure reports
		// the mean magnitude of the detection offset.
		var satAbs []float64
		for _, l := range satLat {
			satAbs = append(satAbs, float64(abs64(l.LatencyNs))/1e6)
		}
		var delegMs []float64
		for _, l := range delegLat {
			delegMs = append(delegMs, float64(l.LatencyNs)/1e6)
		}
		satCell := "-"
		detected := fmt.Sprintf("%d/%d", len(satLat), attackers)
		if len(satAbs) > 0 {
			satCell = fmt.Sprintf("%.3f ms", stats.Mean(satAbs))
		}
		rep.AddRow(fmt.Sprintf("%.0f", rate/1e3), satCell,
			fmt.Sprintf("%.3f ms", stats.Mean(delegMs)), detected)
	}
	rep.AddNote("threshold %d packets, %d attack flows per rate; saturation-based = this system, delegation = 20ms epochs + 10ms network", threshold, attackers)
	rep.AddNote("paper: ~10ms at 10 kpps falling to ~1ms at 130 kpps; heavier attackers are caught faster")
	return rep, nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
