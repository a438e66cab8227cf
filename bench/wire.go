package main

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"instameasure"
	"instameasure/internal/core"
	"instameasure/internal/packet"
	"instameasure/internal/pcap"
	"instameasure/internal/pipeline"
	"instameasure/internal/trace"
)

const wsafTotal = 1 << 20 // the CLI splits this budget across workers

func (r *run) clusterConfig() instameasure.ClusterConfig {
	return instameasure.ClusterConfig{
		Meter:   instameasure.Config{WSAFEntries: max(wsafTotal/r.workers, 1024), Seed: r.meterSeed()},
		Workers: r.workers,
	}
}

// timedPinned times f with the collector's pacing pinned: a collection
// before the clock starts, none while f runs, and one full collection at
// the end, inside the timed window. A pass allocates a few hundred MB, so
// left alone it meets two or three concurrent collections at moments that
// differ from pass to pass and its wall time swings by ±30 %; pinned, it
// pays for its garbage exactly once and the same way every time. An
// allocation saved still shows, as less to allocate and less to sweep.
func timedPinned(f func() error) (float64, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	err := f()
	runtime.GC()
	return time.Since(t0).Seconds(), err
}

// wirePass is the CLI's default pcap path on a fresh cluster: parse the
// capture, run it through the sharded pipeline, cut the merged table as
// one epoch (snapshot and encode, to a writer that discards), answer a
// top-k query.
type wirePass struct {
	passS, cutS, queryS float64
	top                 []instameasure.FlowRecord
	cluster             *instameasure.Cluster
}

func (r *run) wirePass(w *wireCapture, epoch int64) (wirePass, error) {
	c, err := instameasure.NewCluster(r.clusterConfig())
	if err != nil {
		return wirePass{}, err
	}
	var rep instameasure.ClusterReport
	passS, err := timedPinned(func() error {
		tr, err := instameasure.ReadPcap(bytes.NewReader(w.pcap))
		if err != nil {
			return err
		}
		rep, err = c.Run(tr.Source())
		return err
	})
	if err != nil {
		return wirePass{}, err
	}
	t1 := time.Now()
	c.MarkEpochCut(epoch)
	cerr := c.ExportSnapshot(io.Discard, epoch)
	t2 := time.Now()
	top := c.TopKPackets(topK)
	t3 := time.Now()

	want := int64(len(w.parsed.pkts))
	r.ops(int64(w.frames), max(0, want-int64(rep.Packets)))
	r.check(int64(rep.Packets) == want, "epoch %d: parsed %d packets, capture holds %d frames of which %d are not IP", epoch, rep.Packets, w.frames, w.nonIP)
	r.check(rep.Bytes == w.parsed.totalBytes, "epoch %d: byte conservation: cluster saw %d, capture has %d", epoch, rep.Bytes, w.parsed.totalBytes)
	r.check(cerr == nil, "epoch %d: snapshot export: %v", epoch, cerr)
	return wirePass{passS: passS, cutS: t2.Sub(t1).Seconds(), queryS: t3.Sub(t2).Seconds(), top: top, cluster: c}, nil
}

func (r *run) measureWire(w *wireCapture, mt *meterTruth, seconds float64) (*passNumbers, error) {
	// Set-up: one whole capture through a cluster. A cluster serves one
	// run, so every later pass builds its own.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if _, err := r.wirePass(w, 1); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	out := &passNumbers{setupS: median(setups)}
	start := time.Now()
	for epoch := int64(2); epoch == 2 || time.Since(start).Seconds() < seconds; epoch++ {
		p, err := r.wirePass(w, epoch)
		if err != nil {
			return nil, err
		}
		out.passS = append(out.passS, p.passS)
		out.cutS = append(out.cutS, p.cutS)
		out.queryS = append(out.queryS, p.queryS)
		overlap := topOverlap(mt, r.headFlows(), p.top)
		r.check(overlap >= 0.9, "epoch %d: top-k answer holds %.2f of the true top-%d", epoch, overlap, r.headFlows())
		if epoch == 2 {
			est := make(map[packet.FlowKey]float64)
			for _, rec := range p.cluster.Flows() {
				est[rec.Key] = rec.Pkts
			}
			out.weightedErr, out.are = accuracy(mt, func(k packet.FlowKey) float64 { return est[k] })
			r.check(out.weightedErr < 0.5, "weighted top-%d error %.3f", topK, out.weightedErr)
		}
	}
	return out, nil
}

func (r *run) runWire() (map[string]float64, error) {
	w := genWireCapture(r.seed, 100_000/r.shrink, 1_000_000/r.shrink, 1.0)
	mt := newMeterTruth(w.parsed)
	if r.rec == nil {
		n, err := r.measureWire(w, mt, r.seconds)
		if err != nil {
			return nil, err
		}
		return n.endToEnd(w.frames), nil
	}

	n, err := r.measureWire(w, mt, r.seconds/4)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{"core.top1k_are": n.are, "pcap.bytes_per_pkt": float64(len(w.pcap)) / float64(w.frames)}
	tailVals(vals, n.cutS, n.queryS)
	root := r.rec.begin(r.workload, -1, 0)
	if err := r.replayWire(root, w, 3*r.seconds/8, vals); err != nil {
		return nil, err
	}
	// The meter does little here; its stages are replayed over the parsed
	// packets with the cluster's engine config (cache off).
	r.replayCore(root, w.parsed.pkts, 0, 3*r.seconds/8, vals)
	r.rec.end(root, int64(w.frames))
	return vals, nil
}

// replayWire is the wire half of the per-layer ledger: whole passes with
// one span per coarse call (ReadPcap, pipeline Run), then the reader and
// the parser on their own chunk by chunk, then the same capture through
// the manager funnel that a streamed pcap takes. Each round also runs the
// whole pass once with no spans, for the tracing overhead.
func (r *run) replayWire(root int32, w *wireCapture, seconds float64, vals map[string]float64) error {
	refs := w.refs
	newSystem := func() (*pipeline.System, error) {
		cc := r.clusterConfig()
		return pipeline.New(pipeline.Config{Workers: cc.Workers, Engine: core.Config{WSAFEntries: cc.Meter.WSAFEntries, Seed: cc.Meter.Seed}})
	}
	var tracedPassS, plainPassS, busy, imbalance, dropped, parseAllocs, readAllocs []float64
	var ms0, ms1 runtime.MemStats
	var skipped int
	frames := int64(w.frames)
	start := time.Now()
	for round := 1; round == 1 || time.Since(start).Seconds() < seconds; round++ {
		// The whole pass once plain, once under spans, in alternating
		// order so neither always runs on the other's garbage.
		plain := func() error {
			sys, err := newSystem()
			if err != nil {
				return err
			}
			passS, err := timedPinned(func() error {
				tr, err := trace.ReadPcap(bytes.NewReader(w.pcap))
				if err != nil {
					return err
				}
				_, err = sys.Run(tr.Source())
				return err
			})
			plainPassS = append(plainPassS, passS)
			return err
		}
		if round%2 == 1 {
			if err := plain(); err != nil {
				return err
			}
		}
		sys, err := newSystem()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		pass := r.rec.begin("pass:wire", root, round)
		var rep pipeline.Report
		var statS float64 // ReadMemStats stops the world: kept out of the pass's wall time
		passS, err := timedPinned(func() error {
			id := r.rec.begin("trace.readpcap", pass, round)
			tr, err := trace.ReadPcap(bytes.NewReader(w.pcap))
			r.rec.end(id, frames)
			if err != nil {
				return err
			}
			t0 := time.Now()
			runtime.ReadMemStats(&ms1)
			statS = time.Since(t0).Seconds()
			id = r.rec.begin("pipeline.run", pass, round)
			rep, err = sys.Run(tr.Source())
			r.rec.end(id, int64(len(tr.Packets)))
			return err
		})
		r.rec.end(pass, frames)
		if err != nil {
			return err
		}
		tracedPassS = append(tracedPassS, passS-statS)
		readAllocs = append(readAllocs, float64(ms1.Mallocs-ms0.Mallocs)/(float64(frames)/1000))
		r.ops(frames, max(0, int64(len(w.parsed.pkts))-int64(rep.Packets)))
		var util float64
		for _, u := range rep.Utilization() {
			util += u / float64(len(rep.BusyTime))
		}
		var q, d uint64
		for i := range rep.Queued {
			q += rep.Queued[i]
			d += rep.Dropped[i]
		}
		busy = append(busy, util)
		imbalance = append(imbalance, rep.Imbalance())
		dropped = append(dropped, float64(d)/float64(max(q+d, 1)))
		if round%2 == 0 {
			if err := plain(); err != nil {
				return err
			}
		}

		// Stage: the pcap reader alone.
		pr, err := pcap.NewReader(bytes.NewReader(w.pcap))
		if err != nil {
			return err
		}
		pass = r.rec.begin("pass:pcapread", root, round)
		for done := false; !done; {
			id := r.rec.begin("pcap.read", pass, round)
			k := 0
			for ; k < chunk; k++ {
				if _, err := pr.Next(); err != nil {
					if !errors.Is(err, io.EOF) {
						return err
					}
					done = true
					break
				}
			}
			r.rec.end(id, int64(k))
		}
		r.rec.end(pass, frames)

		// Stage: the frame parser alone, on pre-located frames.
		runtime.ReadMemStats(&ms0)
		skipped = 0
		pass = r.rec.begin("pass:parse", root, round)
		for i := 0; i < len(refs); i += chunk {
			end := min(i+chunk, len(refs))
			id := r.rec.begin("packet.parse", pass, round)
			for _, f := range refs[i:end] {
				if _, err := packet.ParseEthernet(w.pcap[f.off:f.off+uint32(f.incl)], int(f.wire), 0); err != nil {
					skipped++
				}
			}
			r.rec.end(id, int64(end-i))
		}
		r.rec.end(pass, frames)
		runtime.ReadMemStats(&ms1)
		parseAllocs = append(parseAllocs, float64(ms1.Mallocs-ms0.Mallocs)/(float64(frames)/1000))
		r.check(skipped == w.nonIP, "parser skipped %d frames, capture holds %d non-IP", skipped, w.nonIP)

		// The funnel: the same capture streamed, so one manager goroutine
		// reads, parses and dispatches.
		if sys, err = newSystem(); err != nil {
			return err
		}
		if pr, err = pcap.NewReader(bytes.NewReader(w.pcap)); err != nil {
			return err
		}
		id := r.rec.begin("pipeline.manager", root, round)
		rep, err = sys.Run(trace.NewPcapSource(pr))
		r.rec.end(id, int64(rep.Packets))
		if err != nil {
			return err
		}
		r.check(int(rep.Packets) == len(w.parsed.pkts), "funnel parsed %d packets, want %d", rep.Packets, len(w.parsed.pkts))
	}
	vals["pcap.read_ns_per_pkt"] = r.rec.rate("pcap.read")
	vals["packet.parse_ns_per_pkt"] = r.rec.rate("packet.parse")
	vals["packet.skip_ratio"] = float64(skipped) / float64(frames)
	vals["packet.allocs_per_kpkt"] = median(parseAllocs)
	vals["trace.readpcap_ns_per_pkt"] = r.rec.rate("trace.readpcap")
	vals["trace.readpcap_allocs_per_kpkt"] = median(readAllocs)
	vals["pipeline.run_ns_per_pkt"] = r.rec.rate("pipeline.run")
	vals["pipeline.manager_ns_per_pkt"] = r.rec.rate("pipeline.manager")
	vals["pipeline.busy_ratio"] = median(busy)
	vals["pipeline.imbalance"] = median(imbalance)
	vals["pipeline.dropped_ratio"] = median(dropped)
	vals["trace.overhead_ratio"] = median(tracedPassS)/median(plainPassS) - 1
	return nil
}
