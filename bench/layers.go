package main

import (
	"time"

	"instameasure/internal/core"
	"instameasure/internal/detect"
	"instameasure/internal/flowreg"
	"instameasure/internal/packet"
	"instameasure/internal/rcc"
	"instameasure/internal/wsaf"
)

// replayCore is the hot-path half of the per-layer ledger. It replays the
// workload's own packets through the engine as configured, then through
// each stage of the engine on its own — hash, cache probe, regulator, WSAF
// — timing one span per chunk of calls, and repeats the round until
// seconds have passed. Stage costs are per call; core.attribution_gap_ns
// is what the as-configured batch costs beyond their weighted sum. Each
// round also runs the as-configured pass once with no spans; it returns
// the tracing overhead, traced wall over untraced wall minus one.
func (r *run) replayCore(root int32, pkts []packet.Packet, cacheEntries int, seconds float64, vals map[string]float64) float64 {
	seed := r.meterSeed()
	newEngine := func(cache int) *core.Engine {
		return core.MustNew(core.Config{HotCacheEntries: cache, Seed: seed})
	}
	arm := func(e *core.Engine) {
		d, _ := detect.NewHeavyHitterDetector(hhThreshold, 0) // constant positive threshold: cannot fail
		d.Attach(e)
	}
	eng, uncached, scalar := newEngine(cacheEntries), newEngine(0), newEngine(cacheEntries)
	counter := rcc.MustNew(rcc.Config{MemoryBytes: 32 << 10, VectorBits: 8, Seed: seed})
	reg := flowreg.MustNew(flowreg.Config{Layer: rcc.Config{MemoryBytes: 32 << 10, VectorBits: 8, Seed: seed}})
	table := wsaf.MustNew(wsaf.Config{Entries: 1 << 20, Seed: seed})

	// One untimed pass collects what reaches the WSAF, to replay against
	// a bare table; it doubles as the engines' warm-up.
	var ops []wsaf.Op
	eng.OnPass(func(ev core.PassEvent) {
		if !ev.Cached {
			k := ev.Key
			ops = append(ops, wsaf.Op{Hash: k.Hash64(seed), Key: k, Pkts: ev.Est.EstPkts, Bytes: ev.Est.EstBytes, TS: ev.TS})
		}
	})
	batchPass(eng, pkts, nil, -1, 0, "")
	batchPass(uncached, pkts, nil, -1, 0, "")
	for i := range pkts {
		scalar.Process(pkts[i])
	}

	hashes := make([]uint64, len(pkts))
	hit := make([]bool, len(pkts))
	missHashes := make([]uint64, 0, len(pkts))
	missLens := make([]int, 0, len(pkts))
	ems := make([]flowreg.Emission, burst)
	oks := make([]bool, burst)
	locs := make([]rcc.Location, chunk)
	n := int64(len(pkts))
	var tracedPassS, plainPassS []float64
	var hits, promos, emissions, regPkts, l1Sats, evictions uint64
	var loadFactor float64

	start := time.Now()
	for round := 1; round == 1 || time.Since(start).Seconds() < seconds; round++ {
		// As configured, with detection armed: once plain, once chunk by
		// chunk under spans, in alternating order so neither always runs
		// on the other's leftovers.
		plain := func() {
			eng.Reset()
			arm(eng)
			t0 := time.Now()
			batchPass(eng, pkts, nil, -1, round, "")
			plainPassS = append(plainPassS, time.Since(t0).Seconds())
		}
		if round%2 == 1 {
			plain()
		}
		eng.Reset()
		arm(eng)
		pass := r.rec.begin("pass:batch", root, round)
		t0 := time.Now()
		batchPass(eng, pkts, r.rec, pass, round, "core.batch")
		tracedPassS = append(tracedPassS, time.Since(t0).Seconds())
		r.rec.end(pass, n)
		r.ops(n, n-int64(eng.Packets()))
		if c := eng.HotCache(); c != nil {
			hits, promos = c.Stats().Hits, c.Stats().Promotions
		}
		emissions, regPkts, l1Sats = eng.Regulator().Emissions(), eng.Regulator().Packets(), eng.Regulator().L1Saturations()
		evictions, loadFactor = eng.Table().Stats().Evictions, eng.Table().LoadFactor()
		if round%2 == 0 {
			plain()
		}

		uncached.Reset()
		arm(uncached)
		pass = r.rec.begin("pass:batch_uncached", root, round)
		batchPass(uncached, pkts, r.rec, pass, round, "core.batch_uncached")
		r.rec.end(pass, n)

		scalar.Reset()
		arm(scalar)
		pass = r.rec.begin("pass:scalar", root, round)
		for i := 0; i < len(pkts); i += chunk {
			end := min(i+chunk, len(pkts))
			id := r.rec.begin("core.scalar", pass, round)
			for j := i; j < end; j++ {
				scalar.Process(pkts[j])
			}
			r.rec.end(id, int64(end-i))
		}
		r.rec.end(pass, n)

		// Stage: one flow-key hash per packet.
		pass = r.rec.begin("pass:hash", root, round)
		for i := 0; i < len(pkts); i += chunk {
			end := min(i+chunk, len(pkts))
			id := r.rec.begin("flowhash.hash", pass, round)
			for j := i; j < end; j++ {
				hashes[j] = pkts[j].Key.Hash64(seed)
			}
			r.rec.end(id, int64(end-i))
		}
		r.rec.end(pass, n)

		// Stage: the cache probe, against the cache the as-configured pass
		// left warm. Its misses are what the regulator sees.
		missHashes, missLens = missHashes[:0], missLens[:0]
		if cache := eng.HotCache(); cache != nil {
			pass = r.rec.begin("pass:bump", root, round)
			for i := 0; i < len(pkts); i += chunk {
				end := min(i+chunk, len(pkts))
				id := r.rec.begin("hotcache.bump", pass, round)
				for j := i; j < end; j++ {
					p := &pkts[j]
					hit[j] = cache.Bump(hashes[j], &p.Key, p.Len, p.TS)
				}
				r.rec.end(id, int64(end-i))
			}
			r.rec.end(pass, n)
			for j := range pkts {
				if !hit[j] {
					missHashes = append(missHashes, hashes[j])
					missLens = append(missLens, int(pkts[j].Len))
				}
			}
		} else {
			missHashes = append(missHashes, hashes...)
			for j := range pkts {
				missLens = append(missLens, int(pkts[j].Len))
			}
		}

		// Stages: virtual-vector derivation and encode on a bare L1
		// counter, then the whole regulator in the engine's bursts.
		counter.Reset()
		pass = r.rec.begin("pass:rcc", root, round)
		for i := 0; i < len(missHashes); i += chunk {
			end := min(i+chunk, len(missHashes))
			id := r.rec.begin("rcc.locate", pass, round)
			for j := i; j < end; j++ {
				counter.Locate(missHashes[j], &locs[j-i])
			}
			r.rec.end(id, int64(end-i))
			id = r.rec.begin("rcc.encode", pass, round)
			for j := i; j < end; j++ {
				counter.EncodeLoc(&locs[j-i])
			}
			r.rec.end(id, int64(end-i))
		}
		r.rec.end(pass, int64(len(missHashes)))

		reg.Reset()
		pass = r.rec.begin("pass:flowreg", root, round)
		for i := 0; i < len(missHashes); i += chunk {
			end := min(i+chunk, len(missHashes))
			id := r.rec.begin("flowreg.process", pass, round)
			for j := i; j < end; j += burst {
				e := min(j+burst, end)
				reg.ProcessBatch(missHashes[j:e], missLens[j:e], ems, oks)
			}
			r.rec.end(id, int64(end-i))
		}
		r.rec.end(pass, int64(len(missHashes)))

		// Stage: the passthroughs against a bare table, un-prefetched (an
		// upper bound on what the engine's prefetched walk pays).
		table.Reset()
		const opChunk = 512
		pass = r.rec.begin("pass:wsaf", root, round)
		for i := 0; i < len(ops); i += opChunk {
			end := min(i+opChunk, len(ops))
			id := r.rec.begin("wsaf.accumulate", pass, round)
			for j := i; j < end; j++ {
				op := &ops[j]
				table.AccumulateHashed(op.Hash, op.Key, op.Pkts, op.Bytes, op.TS)
			}
			r.rec.end(id, int64(end-i))
		}
		r.rec.end(pass, int64(len(ops)))
	}

	kpkts := float64(n) / 1000
	hitRatio := float64(hits) / float64(n)
	opsPerPkt := float64(emissions) / float64(n)
	batch := r.rec.rate("core.batch")
	vals["flowhash.hash_ns_per_pkt"] = r.rec.rate("flowhash.hash")
	vals["rcc.locate_ns_per_pkt"] = r.rec.rate("rcc.locate")
	vals["rcc.encode_ns_per_pkt"] = r.rec.rate("rcc.encode")
	vals["flowreg.process_ns_per_pkt"] = r.rec.rate("flowreg.process")
	vals["flowreg.pass_ratio"] = float64(emissions) / float64(max(regPkts, 1))
	vals["flowreg.l1_saturation_ratio"] = float64(l1Sats) / float64(max(regPkts, 1))
	vals["hotcache.bump_ns_per_pkt"] = r.rec.rate("hotcache.bump")
	vals["hotcache.hit_ratio"] = hitRatio
	vals["hotcache.promotions_per_kpkt"] = float64(promos) / kpkts
	vals["hotcache.fold_drops"] = float64(eng.CacheFoldDrops())
	vals["wsaf.accumulate_ns_per_op"] = r.rec.rate("wsaf.accumulate")
	vals["wsaf.ops_per_kpkt"] = 1000 * opsPerPkt
	vals["wsaf.evictions_per_kop"] = 1000 * float64(evictions) / float64(max(emissions, 1))
	vals["wsaf.load_factor"] = loadFactor
	vals["core.batch_ns_per_pkt"] = batch
	vals["core.batch_uncached_ns_per_pkt"] = r.rec.rate("core.batch_uncached")
	vals["core.scalar_ns_per_pkt"] = r.rec.rate("core.scalar")
	vals["core.attribution_gap_ns"] = batch - (vals["flowhash.hash_ns_per_pkt"] + vals["hotcache.bump_ns_per_pkt"] +
		(1-hitRatio)*vals["flowreg.process_ns_per_pkt"] + opsPerPkt*vals["wsaf.accumulate_ns_per_op"])
	return median(tracedPassS)/median(plainPassS) - 1
}

// batchPass feeds pkts to e in bursts; with a recorder it wraps each
// chunk of bursts in a span called name.
func batchPass(e *core.Engine, pkts []packet.Packet, rec *recorder, parent int32, round int, name string) {
	for i := 0; i < len(pkts); i += chunk {
		end := min(i+chunk, len(pkts))
		id := rec.begin(name, parent, round)
		for j := i; j < end; j += burst {
			e.ProcessBatch(pkts[j:min(j+burst, end)])
		}
		rec.end(id, int64(end-i))
	}
}
