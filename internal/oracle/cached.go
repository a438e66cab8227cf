package oracle

import (
	"fmt"

	"instameasure/internal/core"
	"instameasure/internal/hotcache"
	"instameasure/internal/packet"
	"instameasure/internal/pipeline"
	"instameasure/internal/trace"
)

// CachedReport is the outcome of a cached-engine differential run — leg
// (f) of the oracle: the hot-flow promotion cache in front of the WSAF.
type CachedReport struct {
	Packets uint64
	// Promoted is the number of flows resident in the scalar engine's
	// cache at end of trace; Exact counts those whose exact delta matched
	// the shadow tracker bit-for-bit (a passing run has Exact == Promoted).
	Promoted int
	Exact    int
	// Demotions and Folds summarize churn: demotions observed by the
	// shadow replay, and how many carried a non-zero delta back into the
	// WSAF (each fold is exactly one extra WSAF accumulate).
	Demotions uint64
	Folds     uint64
	// HitRate is the scalar engine's cache hit rate over the trace.
	HitRate float64

	Violations []string
}

// Ok reports whether the run passed every invariant.
func (r *CachedReport) Ok() bool { return len(r.Violations) == 0 }

func (r *CachedReport) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// RunCached replays tr through cached engines and cross-checks the cache
// tier's exactness and conservation invariants:
//
//   - shadow exactness: a shadow tracker mirrors every promotion the
//     scalar engine performs (reset to zero at promotion, incremented on
//     every cache hit, re-reset across demote/re-promote cycles); at end
//     of trace every live cache entry's packet/byte delta must equal its
//     shadow bit-for-bit — promoted flows are counted exactly.
//   - fold accounting: Σ WSAF outcomes == regulator delegations + folds,
//     where folds are the shadow-observed demotions that carried a
//     non-zero delta. A lost fold (undercount) or a double fold
//     (overcount) breaks the equality exactly.
//   - cache conservation: Σ live deltas + demoted deltas == cache hits,
//     for packets and bytes independently.
//   - packet partition: regulator packets + cache hits == engine packets
//     (every packet takes exactly one of the two paths).
//   - batch leg: a ProcessBatch engine over the same trace holds the
//     same per-engine invariants (batch promotions land at burst
//     boundaries, so no bit-equality with scalar is asserted — see
//     core.Engine.ProcessHashed).
//   - sharded leg: the shared-nothing pipeline with one private cache
//     per worker conserves per-worker shard truth, holds the per-engine
//     invariants on every worker, and reports no phantom flows.
func RunCached(tr *trace.Trace, cfg Config) (*CachedReport, error) {
	if cfg.Engine.HotCacheEntries <= 0 {
		return nil, fmt.Errorf("oracle: cached leg needs Engine.HotCacheEntries > 0")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	rep := &CachedReport{Packets: uint64(len(tr.Packets))}

	// --- Scalar engine with shadow tracking -------------------------------
	scalar, err := core.New(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("oracle: cached scalar engine: %w", err)
	}
	cache := scalar.HotCache()
	seed := scalar.HashSeed()

	type delta struct{ pkts, bytes uint64 }
	shadow := make(map[packet.FlowKey]*delta)
	live := make(map[packet.FlowKey]bool)
	for i := range tr.Packets {
		p := tr.Packets[i]
		h := p.Key.Hash64(seed)
		_, pre := cache.Lookup(h, p.Key)
		preLen := cache.Len()
		scalar.Process(p)
		if pre {
			d := shadow[p.Key]
			d.pkts++
			d.bytes += uint64(p.Len)
			continue
		}
		if _, post := cache.Lookup(h, p.Key); !post {
			continue
		}
		// The packet promoted its flow. Entries leave the cache only by
		// demotion, and only one admission happens per packet, so an
		// unchanged length means exactly one incumbent vanished.
		if cache.Len() == preLen {
			for k := range live {
				kh := k.Hash64(seed)
				if _, still := cache.Lookup(kh, k); still {
					continue
				}
				rep.Demotions++
				if d := shadow[k]; d.pkts > 0 || d.bytes > 0 {
					rep.Folds++
				}
				delete(live, k)
				break
			}
		}
		live[p.Key] = true
		shadow[p.Key] = &delta{}
	}

	// Shadow exactness: the tracker and the cache must agree on both the
	// resident set and every exact delta.
	if len(live) != cache.Len() {
		rep.violatef("shadow tracks %d live flows, cache holds %d", len(live), cache.Len())
	}
	cache.Each(func(_ int, e *hotcache.Entry) {
		rep.Promoted++
		d := shadow[e.Key]
		if d == nil || !live[e.Key] {
			rep.violatef("cache holds %v which the shadow never saw promoted", e.Key)
			return
		}
		if e.Pkts != d.pkts || e.Bytes != d.bytes {
			rep.violatef("flow %v: cache delta (%d pkts, %d bytes) != shadow exact (%d, %d)",
				e.Key, e.Pkts, e.Bytes, d.pkts, d.bytes)
			return
		}
		rep.Exact++
	})

	// Fold accounting: every WSAF accumulate is either one regulator
	// delegation or one non-zero demotion fold.
	s := scalar.Table().Stats()
	outcomes := s.Updates + s.Inserts + s.Reclaims + s.Evictions + s.Drops
	if em := scalar.Regulator().Emissions(); outcomes != em+rep.Folds {
		rep.violatef("scalar: Σ WSAF outcomes %d != delegations %d + folds %d", outcomes, em, rep.Folds)
	}
	cs := cache.Stats()
	if cs.Demotions != rep.Demotions {
		rep.violatef("scalar: cache reports %d demotions, shadow observed %d", cs.Demotions, rep.Demotions)
	}
	checkCachedEngine(rep, "scalar", scalar)
	if rep.Packets > 0 {
		rep.HitRate = float64(cs.Hits) / float64(rep.Packets)
	}

	// Merged reads must cover the exact segment: a cached flow's Lookup
	// can never report less than its live delta. (A zero-delta entry
	// whose WSAF record expired is the one legitimate miss — Lookup and
	// Snapshot both treat it as not-live.)
	cache.Each(func(_ int, e *hotcache.Entry) {
		entry, ok := scalar.Lookup(e.Key)
		if !ok {
			if e.Pkts == 0 && e.Bytes == 0 {
				return
			}
			rep.violatef("cached flow %v invisible to merged Lookup", e.Key)
			return
		}
		if entry.Pkts < float64(e.Pkts) || entry.Bytes < float64(e.Bytes) {
			rep.violatef("flow %v: merged lookup (%.0f pkts, %.0f bytes) below live delta (%d, %d)",
				e.Key, entry.Pkts, entry.Bytes, e.Pkts, e.Bytes)
		}
	})

	// --- Batch engine ------------------------------------------------------
	batcher, err := core.New(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("oracle: cached batch engine: %w", err)
	}
	for off := 0; off < len(tr.Packets); off += cfg.BatchSize {
		end := off + cfg.BatchSize
		if end > len(tr.Packets) {
			end = len(tr.Packets)
		}
		batcher.ProcessBatch(tr.Packets[off:end])
	}
	if batcher.Packets() != scalar.Packets() || batcher.Bytes() != scalar.Bytes() {
		rep.violatef("batch totals (%d pkts, %d bytes) != scalar (%d, %d)",
			batcher.Packets(), batcher.Bytes(), scalar.Packets(), scalar.Bytes())
	}
	checkCachedEngine(rep, "batch", batcher)
	checkCachedPhantoms(rep, "batch", batcher, tr)

	// --- Shared-nothing sharded pipeline, one private cache per worker ----
	sys, err := pipeline.New(pipeline.Config{
		Workers:   cfg.Workers,
		BatchSize: cfg.BatchSize,
		Engine:    cfg.Engine,
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: cached sharded pipeline: %w", err)
	}
	sysRep, err := sys.Run(tr.Source())
	if err != nil {
		return nil, fmt.Errorf("oracle: cached sharded run: %w", err)
	}
	if sysRep.Packets != rep.Packets {
		rep.violatef("sharded report packets %d != trace %d", sysRep.Packets, rep.Packets)
	}
	wantPer := make([]uint64, cfg.Workers)
	for i := range tr.Packets {
		wantPer[sys.ShardOf(tr.Packets[i].Key)]++
	}
	for w := 0; w < cfg.Workers; w++ {
		label := fmt.Sprintf("sharded worker %d", w)
		if sysRep.PerWorker[w] != wantPer[w] {
			rep.violatef("%s processed %d packets, shard truth %d", label, sysRep.PerWorker[w], wantPer[w])
		}
		e := sys.Engines()[w]
		if e.HotCache() == nil {
			rep.violatef("%s runs without a private cache", label)
			continue
		}
		checkCachedEngine(rep, label, e)
		checkCachedPhantoms(rep, label, e, tr)
	}

	return rep, nil
}

// checkCachedEngine asserts the per-engine invariants every cached
// execution mode must hold, regardless of packet order.
func checkCachedEngine(rep *CachedReport, label string, e *core.Engine) {
	cache := e.HotCache()
	cs := cache.Stats()

	// Packet partition: every packet either hit the cache or entered the
	// regulator — never both, never neither.
	if rp := e.Regulator().Packets(); rp+cs.Hits != e.Packets() {
		rep.violatef("%s: regulator packets %d + cache hits %d != engine packets %d",
			label, rp, cs.Hits, e.Packets())
	}

	// Cache conservation: hits are either in a live delta or were handed
	// back to the WSAF at demotion — no loss, no double count.
	var livePkts, liveBytes uint64
	cache.Each(func(_ int, en *hotcache.Entry) {
		livePkts += en.Pkts
		liveBytes += en.Bytes
	})
	if livePkts+cs.DemotedPkts != cs.Hits {
		rep.violatef("%s: live deltas %d + demoted %d != cache hits %d",
			label, livePkts, cs.DemotedPkts, cs.Hits)
	}
	if liveBytes+cs.DemotedBytes != cs.HitBytes {
		rep.violatef("%s: live byte deltas %d + demoted %d != cache hit bytes %d",
			label, liveBytes, cs.DemotedBytes, cs.HitBytes)
	}

	// Fold bounds: each WSAF accumulate is a delegation or a demotion
	// fold, and zero-delta demotions fold nothing.
	s := e.Table().Stats()
	outcomes := s.Updates + s.Inserts + s.Reclaims + s.Evictions + s.Drops
	em := e.Regulator().Emissions()
	if outcomes < em || outcomes > em+cs.Demotions {
		rep.violatef("%s: Σ WSAF outcomes %d outside [delegations %d, +demotions %d]",
			label, outcomes, em, em+cs.Demotions)
	}
}

// checkCachedPhantoms asserts every merged-snapshot entry (WSAF and cache
// tier both) belongs to a flow the trace actually contains.
func checkCachedPhantoms(rep *CachedReport, label string, e *core.Engine, tr *trace.Trace) {
	for _, entry := range e.Snapshot() {
		if tr.Truth(entry.Key) == nil {
			rep.violatef("%s: phantom merged-snapshot entry for %v", label, entry.Key)
			return
		}
	}
}
