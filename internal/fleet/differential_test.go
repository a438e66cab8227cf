package fleet

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"instameasure/internal/export"
	"instameasure/internal/flight"
	"instameasure/internal/packet"
	"instameasure/internal/store"
)

// refAggregator is the aggregator's state and queries as they stood before
// the flow table — four Go maps, a whole-map swap per rotation, a map copy
// and a full sort per ranking — kept as the reference the table-based one
// must reproduce byte for byte. Detectors, alerts and telemetry are not
// part of it.
type refAggregator struct {
	sites     map[string]map[packet.FlowKey]export.Record
	net       map[packet.FlowKey]export.Record
	cur, prev map[packet.FlowKey]store.FlowDelta
	seenBatch bool
	rotated   int64
}

func newRefAggregator() *refAggregator {
	return &refAggregator{
		sites: map[string]map[packet.FlowKey]export.Record{},
		net:   map[packet.FlowKey]export.Record{},
		cur:   map[packet.FlowKey]store.FlowDelta{},
		prev:  map[packet.FlowKey]store.FlowDelta{},
	}
}

func (a *refAggregator) rotate() {
	a.prev = a.cur
	a.cur = map[packet.FlowKey]store.FlowDelta{}
}

func (a *refAggregator) ingest(b export.Batch) {
	sv := a.sites[b.Site]
	if sv == nil {
		sv = map[packet.FlowKey]export.Record{}
		a.sites[b.Site] = sv
	}
	if !a.seenBatch {
		a.seenBatch = true
		a.rotated = b.Epoch
	} else if b.Epoch > a.rotated {
		a.rotate()
		a.rotated = b.Epoch
	}
	for i := range b.Records {
		rec := &b.Records[i]
		dPkts, dBytes := rec.Pkts, rec.Bytes
		if old, ok := sv[rec.Key]; ok {
			dPkts -= old.Pkts
			dBytes -= old.Bytes
			if dPkts < 0 || dBytes < 0 {
				dPkts, dBytes = rec.Pkts, rec.Bytes
			}
		}
		if dPkts == 0 && dBytes == 0 {
			continue
		}
		nf, ok := a.net[rec.Key]
		if !ok {
			nf = *rec
		} else {
			nf.Pkts += dPkts
			nf.Bytes += dBytes
		}
		a.net[rec.Key] = nf
		cd := a.cur[rec.Key]
		cd.Key = rec.Key
		cd.Pkts += dPkts
		cd.Bytes += dBytes
		a.cur[rec.Key] = cd
	}
	for i := range b.Records {
		sv[b.Records[i].Key] = b.Records[i]
	}
}

// refKeyLess is the store's tie order over flow keys.
func refKeyLess(a, b *packet.FlowKey) bool {
	if a.IsV6 != b.IsV6 {
		return !a.IsV6
	}
	if c := bytes.Compare(a.SrcIP[:], b.SrcIP[:]); c != 0 {
		return c < 0
	}
	if c := bytes.Compare(a.DstIP[:], b.DstIP[:]); c != 0 {
		return c < 0
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

func refRank(deltas map[packet.FlowKey]store.FlowDelta, k int, byBytes bool) []store.FlowDelta {
	out := make([]store.FlowDelta, 0, len(deltas))
	for _, d := range deltas {
		out = append(out, d)
	}
	metric := func(d *store.FlowDelta) float64 { return d.Pkts }
	if byBytes {
		metric = func(d *store.FlowDelta) float64 { return d.Bytes }
	}
	sort.Slice(out, func(i, j int) bool {
		mi, mj := metric(&out[i]), metric(&out[j])
		if mi != mj {
			return mi > mj
		}
		return refKeyLess(&out[i].Key, &out[j].Key)
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

func (a *refAggregator) topK(k int, byBytes bool) []FlowRank {
	deltas := make(map[packet.FlowKey]store.FlowDelta, len(a.net))
	for key, rec := range a.net {
		deltas[key] = store.FlowDelta{Key: key, Pkts: rec.Pkts, Bytes: rec.Bytes}
	}
	names := make([]string, 0, len(a.sites))
	for name := range a.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	ranked := refRank(deltas, k, byBytes)
	out := make([]FlowRank, len(ranked))
	for i, d := range ranked {
		fr := FlowRank{Key: d.Key, Pkts: d.Pkts, Bytes: d.Bytes}
		for _, name := range names {
			if rec, ok := a.sites[name][d.Key]; ok {
				fr.Sites = append(fr.Sites, SiteShare{Site: name, Pkts: rec.Pkts, Bytes: rec.Bytes})
			}
		}
		out[i] = fr
	}
	return out
}

func (a *refAggregator) siteTopK(site string, k int, byBytes bool) ([]store.FlowDelta, bool) {
	sv, ok := a.sites[site]
	if !ok {
		return nil, false
	}
	deltas := make(map[packet.FlowKey]store.FlowDelta, len(sv))
	for key, rec := range sv {
		deltas[key] = store.FlowDelta{Key: key, Pkts: rec.Pkts, Bytes: rec.Bytes}
	}
	return refRank(deltas, k, byBytes), true
}

func (a *refAggregator) changers(k int, byBytes bool) []store.FlowChange {
	mag := make(map[packet.FlowKey]store.FlowDelta, len(a.cur)+len(a.prev))
	for key, d := range a.cur {
		o := a.prev[key]
		mag[key] = store.FlowDelta{Key: key, Pkts: abs(d.Pkts - o.Pkts), Bytes: abs(d.Bytes - o.Bytes)}
	}
	for key, o := range a.prev {
		if _, seen := a.cur[key]; !seen {
			mag[key] = store.FlowDelta{Key: key, Pkts: o.Pkts, Bytes: o.Bytes}
		}
	}
	ranked := refRank(mag, k, byBytes)
	out := make([]store.FlowChange, len(ranked))
	for i, d := range ranked {
		c, p := a.cur[d.Key], a.prev[d.Key]
		out[i] = store.FlowChange{
			Key: d.Key, Pkts: c.Pkts - p.Pkts, Bytes: c.Bytes - p.Bytes,
			NewerPkts: c.Pkts, OlderPkts: p.Pkts, NewerBytes: c.Bytes, OlderBytes: p.Bytes,
		}
	}
	return out
}

// TestAggregatorMatchesMapReference feeds the aggregator and the map
// reference the same seeded random ingest stream and compares every query
// after every batch. The stream has three sites with overlapping flows
// (the same key at several sites), snapshots re-sent unchanged, flows
// first reported at zero, counters that move backward (a meter restart),
// few distinct values (ties fall to key order), flows that go quiet for
// whole windows, epochs that open several windows in a row, and explicit
// rotations — so entries are read and touched one, two and many
// generations after they last moved.
func TestAggregatorMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		agg := mustAgg(t, Config{})
		ref := newRefAggregator()
		sites := []string{"edge-1", "edge-2", "core"}
		const flows = 120
		counters := make(map[string][]float64)
		for _, s := range sites {
			counters[s] = make([]float64, flows)
		}
		epoch := int64(1)
		for step := 0; step < 100; step++ {
			switch rng.Intn(6) {
			case 0:
				epoch++
			case 1:
				if rng.Intn(3) == 0 { // a run of rotations with nothing in between
					for n := 1 + rng.Intn(3); n > 0; n-- {
						agg.Rotate()
						ref.rotate()
					}
				}
			}
			site := sites[rng.Intn(len(sites))]
			vals := counters[site]
			active := rng.Intn(5) // each batch moves one residue class of flows, or (4) none
			var recs []export.Record
			for id := 0; id < flows; id++ {
				if (id+len(site))%3 == 0 {
					continue // not seen at this site
				}
				switch {
				case rng.Intn(60) == 0:
					vals[id] = float64(rng.Intn(2)) // restart
				case id%4 == active:
					vals[id] += float64(rng.Intn(3)) * 10
				}
				recs = append(recs, flowRec(id, vals[id], vals[id]*float64(50+id%2)))
			}
			b := export.Batch{Epoch: epoch, Site: site, Records: recs}
			agg.Ingest(b)
			ref.ingest(b)

			for _, byBytes := range []bool{false, true} {
				for _, k := range []int{0, 1, 9} {
					if got, want := agg.TopK(k, byBytes), ref.topK(k, byBytes); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d: TopK(%d, %v)\n got %v\nwant %v", seed, step, k, byBytes, got, want)
					}
					if got, want := agg.Changers(k, byBytes), ref.changers(k, byBytes); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d: Changers(%d, %v)\n got %v\nwant %v", seed, step, k, byBytes, got, want)
					}
					for _, s := range append(sites, "nowhere") {
						got, gotOK := agg.SiteTopK(s, k, byBytes)
						want, wantOK := ref.siteTopK(s, k, byBytes)
						if gotOK != wantOK || !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d step %d: SiteTopK(%s, %d, %v)\n got %v %v\nwant %v %v", seed, step, s, k, byBytes, got, gotOK, want, wantOK)
						}
					}
				}
			}
			if got, want := agg.Stats().Flows, len(ref.net); got != want {
				t.Fatalf("seed %d step %d: %d network flows, reference %d", seed, step, got, want)
			}
		}
	}
}

// TestRepeatedKeyInBatch pins what a key appearing twice in one batch
// means: the later record wins the site view, and the network view moves
// by the step from each occurrence to the next, so it ends on the site's
// value. (The map-based aggregator measured both against the value from
// before the batch and counted the first step twice.)
func TestRepeatedKeyInBatch(t *testing.T) {
	a := mustAgg(t, Config{})
	a.Ingest(export.Batch{Epoch: 1, Site: "s", Records: []export.Record{flowRec(1, 10, 100)}})
	a.Ingest(export.Batch{Epoch: 1, Site: "s", Records: []export.Record{flowRec(1, 14, 140), flowRec(1, 17, 170)}})
	top := a.TopK(1, false)
	if len(top) != 1 || top[0].Pkts != 17 || top[0].Bytes != 170 ||
		len(top[0].Sites) != 1 || top[0].Sites[0].Pkts != 17 {
		t.Fatalf("network view after a repeated key: %+v, want 17 packets / 170 bytes at one site", top)
	}
}

// TestSetFlightDuringIngest: the flight handle may be swapped while
// batches arrive on other goroutines (run under -race).
func TestSetFlightDuringIngest(t *testing.T) {
	a := mustAgg(t, Config{})
	rec := flight.NewRecorder(1, 64)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			site := []string{"a", "b"}[w]
			for e := int64(1); e <= 200; e++ {
				a.Ingest(export.Batch{Epoch: e, Site: site, Records: []export.Record{flowRec(w, float64(e), float64(e))}})
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			a.SetFlight(rec.Control())
		} else {
			a.SetFlight(flight.Handle{})
		}
	}
	wg.Wait()
	if st := a.Stats(); st.Batches != 400 {
		t.Fatalf("ingested %d batches, want 400", st.Batches)
	}
}
