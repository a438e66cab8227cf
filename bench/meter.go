package main

import (
	"io"
	"math"
	"runtime"
	"time"

	"instameasure"
	"instameasure/internal/packet"
)

// meterSpec sizes a single-Meter packet workload; zipf_hot and mice_churn
// share the path and differ only in the population they draw from.
type meterSpec struct {
	flows, zipfPkts int
	skew            float64
}

const (
	burst        = 256  // packets per ProcessBatch call, the pipeline's default
	chunk        = 4096 // hot-path calls per traced span
	injFlows     = 128  // constant-rate heavy hitters laid over the Zipf draw
	injPkts      = 2500
	hhThreshold  = 1000
	topK         = 1000
	setupRepeats = 5
	hotCacheSize = 4096
)

// meterTruth is what a pass over a packetTrace must reproduce.
type meterTruth struct {
	tr     *packetTrace
	top    []int // true top-k flow ids
	injIdx map[packet.FlowKey]int
}

func newMeterTruth(tr *packetTrace) *meterTruth {
	mt := &meterTruth{tr: tr, top: tr.topTrue(topK), injIdx: make(map[packet.FlowKey]int, len(tr.injSlots))}
	for j := range tr.injSlots {
		mt.injIdx[tr.keys[tr.zipfFlows+j]] = j
	}
	return mt
}

// hhLog collects the heavy-hitter events of one pass for the injected
// flows; other flows that cross the threshold are real but have no
// constant-rate truth to score against.
type hhLog struct {
	mt *meterTruth
	ts []int64 // detection TS per injected flow, 0 = not detected
}

func (h *hhLog) arm(m *instameasure.Meter) error {
	h.ts = make([]int64, len(h.mt.tr.injSlots))
	return m.OnHeavyHitter(hhThreshold, 0, func(ev instameasure.HeavyHitterEvent) {
		if j, ok := h.mt.injIdx[ev.Key]; ok && h.ts[j] == 0 {
			h.ts[j] = ev.TS
		}
	})
}

// score returns recall over the injected flows and, per detected flow,
// |true packet count at the event's TS − threshold|.
func (h *hhLog) score() (recall float64, errPkts []float64) {
	for j, ts := range h.ts {
		if ts == 0 {
			continue
		}
		errPkts = append(errPkts, math.Abs(float64(h.mt.tr.trueCountAt(j, ts))-hhThreshold))
	}
	return float64(len(errPkts)) / float64(len(h.ts)), errPkts
}

func feed(m *instameasure.Meter, pkts []packet.Packet) {
	for i := 0; i < len(pkts); i += burst {
		m.ProcessBatch(pkts[i:min(i+burst, len(pkts))])
	}
}

// accuracy scores estimates against the true top-k: the weighted form
// (Σ|est−true| / Σtrue, so a flow counts by its size) backs the bounded
// top1k_accuracy, the plain mean relative error is the paper's ARE.
func accuracy(mt *meterTruth, estimate func(packet.FlowKey) float64) (weighted, are float64) {
	var absErr, total float64
	for _, id := range mt.top {
		truth := float64(mt.tr.truePkts[id])
		e := math.Abs(estimate(mt.tr.keys[id]) - truth)
		absErr += e
		total += truth
		are += e / truth
	}
	return absErr / total, are / float64(len(mt.top))
}

// headFlows is how many of the true largest flows every top-k answer is
// checked for: 100, fewer when the smoke test shrinks the population.
func (r *run) headFlows() int { return max(5, 100/r.shrink) }

// topOverlap is the share of the true top-n flows present in answer.
func topOverlap(mt *meterTruth, n int, answer []instameasure.FlowRecord) float64 {
	got := make(map[packet.FlowKey]bool, len(answer))
	for _, rec := range answer {
		got[rec.Key] = true
	}
	n = min(n, len(mt.top))
	hit := 0
	for _, id := range mt.top[:n] {
		if got[mt.tr.keys[id]] {
			hit++
		}
	}
	return float64(hit) / float64(n)
}

// setupMeter is everything a user pays before the first measured packet:
// construct, arm detection, and one warm-up pass so lazy page faults and
// table growth are behind us, then Reset.
func setupMeter(cfg instameasure.Config, hh *hhLog) (*instameasure.Meter, error) {
	m, err := instameasure.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := hh.arm(m); err != nil {
		return nil, err
	}
	feed(m, hh.mt.tr.pkts)
	m.Reset()
	return m, nil
}

// passNumbers is what the timed passes of a packet workload yield; the
// detection and allocation fields are the single Meter's only.
type passNumbers struct {
	setupS              float64
	passS, cutS, queryS []float64
	weightedErr, are    float64
	recall              float64
	hhErr               []float64
	allocsPerKpkt       float64
}

// endToEnd shapes the passes, each over items packets or frames, into the
// end-to-end set.
func (n *passNumbers) endToEnd(items int) map[string]float64 {
	return endToEndVals(n.setupS, float64(items)/median(n.passS), n.cutS, n.queryS, 1-n.weightedErr)
}

// measureMeter runs setupRepeats set-ups, then whole passes for the given
// wall time: ingest, cut the epoch (snapshot and encode, to a writer that
// discards: no store, no disk), answer a top-k query, Reset.
func (r *run) measureMeter(cfg instameasure.Config, mt *meterTruth, seconds float64) (*passNumbers, error) {
	hh := &hhLog{mt: mt}
	var m *instameasure.Meter
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if m, err = setupMeter(cfg, hh); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	out := &passNumbers{setupS: median(setups)}
	pkts := mt.tr.pkts
	var ms0, ms1 runtime.MemStats
	var ingested int64
	start := time.Now()
	for epoch := int64(1); epoch == 1 || time.Since(start).Seconds() < seconds; epoch++ {
		if err := hh.arm(m); err != nil {
			return nil, err
		}
		// A pass allocates nothing, a cut and a query a few MB each: far too
		// little to trigger a collection, so left alone every cut faults
		// in fresh pages until the heap doubles, then a few reuse swept
		// memory, and the median flips between the two regimes from run
		// to run. Collecting here, off the clock, keeps every cut on
		// recycled memory: the steady state of a long-running meter.
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		feed(m, pkts)
		passS := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms1)
		t1 := time.Now()
		err := m.ExportSnapshot(io.Discard, epoch)
		t2 := time.Now()
		top := m.TopKPackets(topK)
		t3 := time.Now()
		out.passS = append(out.passS, passS)
		out.cutS = append(out.cutS, t2.Sub(t1).Seconds())
		out.queryS = append(out.queryS, t3.Sub(t2).Seconds())
		out.allocsPerKpkt += float64(ms1.Mallocs - ms0.Mallocs)
		ingested += int64(len(pkts))

		st := m.Stats()
		r.ops(int64(len(pkts)), int64(len(pkts))-int64(st.Packets))
		r.check(st.Bytes == mt.tr.totalBytes, "epoch %d: byte conservation: meter saw %d, trace has %d", epoch, st.Bytes, mt.tr.totalBytes)
		r.check(err == nil, "epoch %d: snapshot export: %v", epoch, err)
		overlap := topOverlap(mt, r.headFlows(), top)
		r.check(overlap >= 0.9, "epoch %d: top-k answer holds %.2f of the true top-%d", epoch, overlap, r.headFlows())
		if epoch == 1 {
			// Passes repeat the same input on the same seed, so the
			// accuracy and detection scores are taken once, on the first.
			out.weightedErr, out.are = accuracy(mt, func(k packet.FlowKey) float64 {
				p, _ := m.Estimate(k)
				return p
			})
			out.recall, out.hhErr = hh.score()
			r.check(out.recall == 1, "heavy-hitter recall over injected flows %.3f, want 1", out.recall)
			r.check(out.weightedErr < 0.5, "weighted top-%d error %.3f", topK, out.weightedErr)
		}
		m.Reset()
	}
	out.allocsPerKpkt /= float64(ingested) / 1000
	return out, nil
}

func (r *run) runMeter(spec meterSpec) (map[string]float64, error) {
	tr := genPacketTrace(r.seed, spec.flows/r.shrink, spec.zipfPkts/r.shrink, spec.skew, max(8, injFlows/r.shrink), injPkts)
	mt := newMeterTruth(tr)
	cfg := instameasure.Config{HotCacheEntries: hotCacheSize, Seed: r.meterSeed()}
	if r.rec == nil {
		n, err := r.measureMeter(cfg, mt, r.seconds)
		if err != nil {
			return nil, err
		}
		return n.endToEnd(len(tr.pkts)), nil
	}
	// Traced: a quarter of the time repeats the untraced measurement as
	// the reference, the rest replays the path layer by layer.
	n, err := r.measureMeter(cfg, mt, r.seconds/4)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"core.allocs_per_kpkt":   n.allocsPerKpkt,
		"core.top1k_are":         n.are,
		"detect.hh_recall":       n.recall,
		"detect.hh_err_pkts_p50": median(n.hhErr),
		"detect.hh_err_pkts_p90": quantile(n.hhErr, 0.9),
	}
	tailVals(vals, n.cutS, n.queryS)
	root := r.rec.begin(r.workload, -1, 0)
	vals["trace.overhead_ratio"] = r.replayCore(root, tr.pkts, hotCacheSize, 3*r.seconds/4, vals)
	r.rec.end(root, int64(len(tr.pkts)))
	return vals, nil
}
