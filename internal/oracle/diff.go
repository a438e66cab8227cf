// The differential test engine: one seeded trace, four executions, and a
// set of cross-run invariants that must hold exactly (where the design is
// deterministic) or within the analytic envelope (where it is
// probabilistic).
package oracle

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"instameasure/internal/core"
	"instameasure/internal/export"
	"instameasure/internal/packet"
	"instameasure/internal/pcap"
	"instameasure/internal/pipeline"
	"instameasure/internal/trace"
)

// Config parameterizes a differential run.
type Config struct {
	// Engine is the configuration shared by every execution.
	Engine core.Config
	// Workers is the pipeline width; 0 means 4.
	Workers int
	// BatchSize is the ProcessBatch / pipeline burst size; 0 means 256.
	BatchSize int
	// Sigmas is the envelope safety factor; 0 means 5.
	Sigmas float64
	// FloorMult sets the envelope floor at FloorMult × retention capacity;
	// 0 means 2.
	FloorMult float64
	// MaxWorst bounds how many worst-offender flows the report retains;
	// 0 means 8.
	MaxWorst int
	// SkipEnvelope disables the analytic error-envelope checks, keeping
	// only the exact invariants — for property tests over random sketch
	// geometries where the envelope's assumptions (low fill ratio, enough
	// emissions) need not hold.
	SkipEnvelope bool
}

// FlowCheck is one envelope comparison: a flow's exact truth against the
// scalar engine's estimate.
type FlowCheck struct {
	Key       packet.FlowKey
	Truth     float64 // exact packet count
	Est       float64 // engine packet estimate
	RelErr    float64 // |Est−Truth|/Truth
	Bound     float64 // Sigmas-sigma analytic bound for this flow size
	ByteRel   float64 // byte-estimate relative error
	ByteBound float64
}

// Report is the outcome of one differential run.
type Report struct {
	Packets uint64
	Flows   int
	Env     Envelope

	// Envelope statistics over the checked (above-floor) flows.
	Checked      int
	StdErr       float64 // √mean(RelErr²) — the paper's std-err metric
	MeanRelErr   float64
	MaxRelErr    float64
	MaxOverBound float64 // max RelErr/Bound: <1 means the envelope held everywhere
	Checks       []FlowCheck
	Worst        []FlowCheck

	// Violations lists every invariant that failed; empty means the run
	// passed.
	Violations []string
}

// Ok reports whether the run passed every invariant.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

func (r *Report) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Run replays tr through (a) the exact Reference, (b) a scalar Process
// engine, (c) a ProcessBatch engine, (d) a one-worker pipeline and (e) a
// cfg.Workers-wide one — (d) and (e) each twice, once striping the trace
// and once sharing it as a streamed capture — then cross-checks:
//
//   - batch ≡ scalar: identical table state, statistics, and per-flow
//     estimates (bit-exact — same seed, same update order).
//   - one-worker pipeline ≡ batch: with a single worker no packet crosses
//     a ring and the engine sees the batch engine's very bursts, so any
//     divergence is a transport bug (bit-exact; needs a non-zero engine
//     Seed or HashSeed — with both zero the pipeline picks a hash seed of
//     its own).
//   - conservation: Σ outcome counters = delegations, occupancy =
//     fresh-slot inserts.
//   - sharded conservation: each worker's packet and byte totals equal the
//     shard truth computed from the trace (bit-exact counts; worker-local
//     packet order is scheduling-dependent, so state is checked
//     structurally and through the envelope, not bit-exactly).
//   - no phantom flows: every WSAF entry's key appeared in the trace.
//   - TTL hygiene: no snapshot entry is older than the TTL.
//   - export fidelity: snapshot → codec → snapshot round-trips exactly.
//   - envelope (TTL=0 runs only): per-flow relative error within the
//     analytic bound for every flow above the retention floor — held by
//     the scalar engine and by the worker owning the flow in each (e) run.
func Run(tr *trace.Trace, cfg Config) (*Report, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.MaxWorst <= 0 {
		cfg.MaxWorst = 8
	}
	env, err := NewEnvelope(cfg.Engine, cfg.Sigmas)
	if err != nil {
		return nil, fmt.Errorf("oracle: envelope: %w", err)
	}
	rep := &Report{Packets: uint64(len(tr.Packets)), Flows: tr.Flows(), Env: env}
	ttl := cfg.Engine.WSAFTTL

	// (a) Exact reference.
	ref := NewReference(ttl)
	for i := range tr.Packets {
		ref.Observe(tr.Packets[i])
	}
	if ref.Packets() != rep.Packets {
		rep.violatef("oracle packets %d != trace packets %d", ref.Packets(), rep.Packets)
	}

	// (b) Scalar engine.
	scalar, err := core.New(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("oracle: scalar engine: %w", err)
	}
	for i := range tr.Packets {
		scalar.Process(tr.Packets[i])
	}

	// (c) Batch engine: same config, burst ingestion.
	batcher, err := core.New(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("oracle: batch engine: %w", err)
	}
	for off := 0; off < len(tr.Packets); off += cfg.BatchSize {
		end := off + cfg.BatchSize
		if end > len(tr.Packets) {
			end = len(tr.Packets)
		}
		batcher.ProcessBatch(tr.Packets[off:end])
	}

	checkConservation(rep, "scalar", scalar, rep.Packets)
	checkConservation(rep, "batch", batcher, rep.Packets)
	compareEngines(rep, "batch vs scalar", batcher, scalar, tr)
	checkNoPhantoms(rep, "scalar", scalar, ref)
	checkTTLHygiene(rep, "scalar", scalar, ttl)

	// The same trace as a streamed capture: a source that cannot be split,
	// so the workers share it. Headers survive the 64-byte snap; the wire
	// length rides in the record header.
	var capture bytes.Buffer
	capture.Grow(len(tr.Packets) * 96)
	if err := tr.WritePcap(&capture, 64); err != nil {
		return nil, fmt.Errorf("oracle: write capture: %w", err)
	}
	// Each source has its shard policy for leg (e) and, so that the truth
	// there does not all come from the system under test, its own way of
	// naming a flow's owner.
	sources := []struct {
		name   string
		open   func() (trace.Source, error)
		policy pipeline.HashShardFunc // nil: the default, HashShard
		owner  func(*pipeline.System, packet.FlowKey) int
	}{
		{"striped", func() (trace.Source, error) { return tr.Source(), nil },
			nil, (*pipeline.System).ShardOf},
		{"streamed", func() (trace.Source, error) {
			r, err := pcap.NewReader(bytes.NewReader(capture.Bytes()))
			if err != nil {
				return nil, err
			}
			return trace.NewPcapSource(r), nil
		}, pipeline.PopcountShard, func(_ *pipeline.System, k packet.FlowKey) int { return shardKey(k, cfg.Workers) }},
	}
	runPipeline := func(label string, pc pipeline.Config, open func() (trace.Source, error)) (*pipeline.System, error) {
		pc.BatchSize, pc.Engine = cfg.BatchSize, cfg.Engine
		sys, err := pipeline.New(pc)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", label, err)
		}
		src, err := open()
		if err != nil {
			return nil, fmt.Errorf("oracle: %s source: %w", label, err)
		}
		pipeRep, err := sys.Run(src)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s run: %w", label, err)
		}
		if pipeRep.Packets != rep.Packets {
			rep.violatef("%s: report packets %d != trace %d", label, pipeRep.Packets, rep.Packets)
		}
		for w, d := range pipeRep.Dropped {
			if d != 0 {
				rep.violatef("%s: lossless pipeline dropped %d packets bound for worker %d", label, d, w)
			}
		}
		return sys, nil
	}

	// (d) One worker: no ring traffic, and the engine is handed exactly the
	// bursts (c) was, so its state must match the batch engine bit for bit
	// — from a stripe and through the shared handle alike.
	for _, src := range sources {
		label := "1-worker pipeline (" + src.name + ")"
		sys, err := runPipeline(label, pipeline.Config{Workers: 1}, src.open)
		if err != nil {
			return nil, err
		}
		compareEngines(rep, label+" vs batch", sys.Engines()[0], batcher, tr)
	}

	// (e) cfg.Workers workers. Worker-local packet order is
	// scheduling-dependent, so no bit-exact twin exists: the checks are
	// structural — conservation, shard truth, no phantom flows, TTL hygiene
	// — plus the accuracy envelope below. The striped run shards by the
	// default hash policy, the streamed one by the paper's popcount (its
	// truth computed by shardKey, not by the system under test).
	//
	// Shard truth: a policy is a pure function of the flow key, so each
	// worker's exact load is computable from the trace alone. A packet
	// count off means a packet was misrouted, dropped, or double-counted in
	// the ring exchange; a byte count off means one was corrupted there.
	var sharded []*pipeline.System
	for _, src := range sources {
		label := fmt.Sprintf("%d-worker pipeline (%s)", cfg.Workers, src.name)
		sys, err := runPipeline(label, pipeline.Config{Workers: cfg.Workers, HashPolicy: src.policy}, src.open)
		if err != nil {
			return nil, err
		}
		sharded = append(sharded, sys)
		wantPkts := make([]uint64, cfg.Workers)
		wantBytes := make([]uint64, cfg.Workers)
		for i := range tr.Packets {
			w := src.owner(sys, tr.Packets[i].Key)
			wantPkts[w]++
			wantBytes[w] += uint64(tr.Packets[i].Len)
		}
		for w, e := range sys.Engines() {
			wl := fmt.Sprintf("%s worker %d", label, w)
			if e.Packets() != wantPkts[w] || e.Bytes() != wantBytes[w] {
				rep.violatef("%s processed %d packets / %d bytes, shard truth %d / %d",
					wl, e.Packets(), e.Bytes(), wantPkts[w], wantBytes[w])
			}
			checkConservation(rep, wl, e, e.Packets())
			checkNoPhantoms(rep, wl, e, ref)
			checkTTLHygiene(rep, wl, e, ttl)
		}
	}

	checkExportRoundTrip(rep, scalar)

	// Envelope checks need the whole-trace truth; a non-zero TTL makes the
	// WSAF clock (last delegation) lag the oracle clock (last packet), so
	// those runs stick to the structural invariants above.
	if ttl == 0 && !cfg.SkipEnvelope {
		floor := env.Floor(cfg.FloorMult)
		var sumSq, sumRel float64
		ref.Each(func(k packet.FlowKey, f Flow) {
			truth := float64(f.Pkts)
			if truth < floor {
				return
			}
			est, estBytes := scalar.Estimate(k)
			check := FlowCheck{
				Key:       k,
				Truth:     truth,
				Est:       est,
				RelErr:    math.Abs(est-truth) / truth,
				Bound:     env.PktBound(truth),
				ByteRel:   math.Abs(estBytes-float64(f.Bytes)) / float64(f.Bytes),
				ByteBound: env.ByteBound(truth),
			}
			rep.Checks = append(rep.Checks, check)
			rep.Checked++
			sumSq += check.RelErr * check.RelErr
			sumRel += check.RelErr
			if check.RelErr > rep.MaxRelErr {
				rep.MaxRelErr = check.RelErr
			}
			if over := check.RelErr / check.Bound; over > rep.MaxOverBound {
				rep.MaxOverBound = over
			}
			if check.RelErr > check.Bound {
				rep.violatef("flow %v (truth %.0f): relative error %.4f exceeds %.1fσ bound %.4f",
					k, truth, check.RelErr, env.Sigmas, check.Bound)
			}
			if check.ByteRel > check.ByteBound {
				rep.violatef("flow %v (truth %.0f): byte error %.4f exceeds bound %.4f",
					k, truth, check.ByteRel, check.ByteBound)
			}
			// The pipeline worker owning this flow is an independent
			// sample — different ingest order, different derived seed —
			// and must satisfy the same envelope.
			for i, sys := range sharded {
				w := sys.ShardOf(k)
				est, _ := sys.Engines()[w].Estimate(k)
				if rel := math.Abs(est-truth) / truth; rel > check.Bound {
					rep.violatef("flow %v (truth %.0f): %s pipeline worker %d error %.4f exceeds bound %.4f",
						k, truth, sources[i].name, w, rel, check.Bound)
				}
			}
		})
		if rep.Checked > 0 {
			rep.StdErr = math.Sqrt(sumSq / float64(rep.Checked))
			rep.MeanRelErr = sumRel / float64(rep.Checked)
		}
		rep.Worst = worstChecks(rep.Checks, cfg.MaxWorst)
	}
	return rep, nil
}

// shardKey applies the popcount shard policy to a bare key.
func shardKey(k packet.FlowKey, workers int) int {
	return pipeline.PopcountShard(0, &packet.Packet{Key: k}, workers)
}

// checkConservation asserts the engine's internal counting identities.
func checkConservation(rep *Report, label string, e *core.Engine, wantPackets uint64) {
	if got := e.Packets(); got != wantPackets {
		rep.violatef("%s: engine packets %d != %d", label, got, wantPackets)
	}
	if rp := e.Regulator().Packets(); rp != e.Packets() {
		rep.violatef("%s: regulator packets %d != engine packets %d", label, rp, e.Packets())
	}
	s := e.Table().Stats()
	outcomes := s.Updates + s.Inserts + s.Reclaims + s.Evictions + s.Drops
	if em := e.Regulator().Emissions(); outcomes != em {
		rep.violatef("%s: Σ WSAF outcomes %d != delegations %d", label, outcomes, em)
	}
	if occ := uint64(e.Table().Len()); occ != s.Inserts {
		rep.violatef("%s: occupancy %d != fresh-slot inserts %d", label, occ, s.Inserts)
	}
	if sat := e.Regulator().L1Saturations(); e.Regulator().Emissions() > sat {
		rep.violatef("%s: emissions %d exceed L1 saturations %d", label, e.Regulator().Emissions(), sat)
	}
}

// compareEngines asserts two engines reached bit-identical state. When tr
// is non-nil, every flow's estimate is compared too (covering sketch
// residual state the snapshots cannot see).
func compareEngines(rep *Report, label string, a, b *core.Engine, tr *trace.Trace) {
	if a.Packets() != b.Packets() || a.Bytes() != b.Bytes() {
		rep.violatef("%s: totals (%d pkts, %d bytes) != (%d pkts, %d bytes)",
			label, a.Packets(), a.Bytes(), b.Packets(), b.Bytes())
	}
	if as, bs := a.Table().Stats(), b.Table().Stats(); as != bs {
		rep.violatef("%s: table stats %+v != %+v", label, as, bs)
	}
	ar, br := a.Regulator(), b.Regulator()
	if ar.Packets() != br.Packets() || ar.L1Saturations() != br.L1Saturations() || ar.Emissions() != br.Emissions() {
		rep.violatef("%s: regulator counters (%d,%d,%d) != (%d,%d,%d)", label,
			ar.Packets(), ar.L1Saturations(), ar.Emissions(),
			br.Packets(), br.L1Saturations(), br.Emissions())
	}
	asnap, bsnap := a.Snapshot(), b.Snapshot()
	if len(asnap) != len(bsnap) {
		rep.violatef("%s: snapshot sizes %d != %d", label, len(asnap), len(bsnap))
		return
	}
	for i := range asnap {
		if asnap[i] != bsnap[i] {
			rep.violatef("%s: snapshot entry %d differs: %+v != %+v", label, i, asnap[i], bsnap[i])
			return
		}
	}
	if tr != nil {
		tr.EachTruth(func(k packet.FlowKey, _ *trace.FlowTruth) {
			ap, ab := a.Estimate(k)
			bp, bb := b.Estimate(k)
			if ap != bp || ab != bb {
				rep.violatef("%s: estimate for %v: (%g,%g) != (%g,%g)", label, k, ap, ab, bp, bb)
			}
		})
	}
}

// checkNoPhantoms asserts every WSAF entry belongs to a flow that actually
// appeared in the trace — the invariant key-corruption bugs break.
func checkNoPhantoms(rep *Report, label string, e *core.Engine, ref *Reference) {
	for _, entry := range e.Snapshot() {
		if _, ok := ref.Truth(entry.Key); !ok {
			rep.violatef("%s: phantom WSAF entry for %v (flow never in trace)", label, entry.Key)
			return
		}
	}
}

// checkTTLHygiene asserts no snapshot entry is reported past its TTL.
func checkTTLHygiene(rep *Report, label string, e *core.Engine, ttl int64) {
	if ttl <= 0 {
		return
	}
	now := e.LastTS()
	for _, entry := range e.Snapshot() {
		if now-entry.LastUpdate > ttl {
			rep.violatef("%s: snapshot leaked expired entry %+v at now=%d ttl=%d", label, entry, now, ttl)
			return
		}
	}
}

// checkExportRoundTrip asserts snapshot → codec → snapshot fidelity for
// both the batch frame and the snapshot-with-stats file format.
func checkExportRoundTrip(rep *Report, e *core.Engine) {
	snap := e.Snapshot()
	records := make([]export.Record, len(snap))
	for i, entry := range snap {
		records[i] = export.FromEntry(entry)
	}
	s := e.Table().Stats()
	stats := export.TableStats{
		Updates:     s.Updates,
		Inserts:     s.Inserts,
		Expirations: s.Reclaims,
		Evictions:   s.Evictions,
		Drops:       s.Drops,
	}

	var buf bytes.Buffer
	if err := export.WriteSnapshotStats(&buf, e.LastTS(), records, stats); err != nil {
		rep.violatef("export: write snapshot: %v", err)
		return
	}
	batch, gotStats, hasStats, err := export.ReadSnapshotStats(&buf)
	if err != nil {
		rep.violatef("export: read snapshot: %v", err)
		return
	}
	if !hasStats || gotStats != stats {
		rep.violatef("export: stats trailer mismatch: has=%v got %+v want %+v", hasStats, gotStats, stats)
	}
	if batch.Epoch != e.LastTS() {
		rep.violatef("export: epoch %d != %d", batch.Epoch, e.LastTS())
	}
	if len(batch.Records) != len(records) {
		rep.violatef("export: %d records round-tripped, want %d", len(batch.Records), len(records))
		return
	}
	for i := range records {
		if batch.Records[i] != records[i] {
			rep.violatef("export: record %d corrupted: %+v != %+v", i, batch.Records[i], records[i])
			return
		}
	}
}

// worstChecks returns the n checks with the highest RelErr/Bound ratio.
func worstChecks(checks []FlowCheck, n int) []FlowCheck {
	sorted := make([]FlowCheck, len(checks))
	copy(sorted, checks)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].RelErr/sorted[i].Bound > sorted[j].RelErr/sorted[j].Bound
	})
	if n < len(sorted) {
		sorted = sorted[:n]
	}
	return sorted
}
