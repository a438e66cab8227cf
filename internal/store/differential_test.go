package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"instameasure/internal/export"
	"instameasure/internal/packet"
)

// The query layer as it stood before the flow table, kept as the reference
// the table-based one must reproduce byte for byte: per-epoch Go maps built
// from fully decoded frames (through the stream decoder, so the in-place
// decoder is checked against it too), a third map for the delta, and a
// full sort for every ranking.

func refDecode(t *testing.T, s *Store, ref recordRef) []export.Record {
	t.Helper()
	f, err := os.Open(filepath.Join(s.dir, segName(ref.seg)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload, err := readFrame(f, ref, make([]byte, ref.size))
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := export.ReadSnapshotStats(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return b.Records
}

func refTableAt(t *testing.T, s *Store, refs []recordRef, e int64) (map[packet.FlowKey]export.Record, bool) {
	best := int64(0)
	found := false
	for _, r := range refs {
		if e > 0 && r.epoch > e {
			continue
		}
		if !found || r.epoch > best {
			best, found = r.epoch, true
		}
	}
	if !found {
		return nil, false
	}
	table := make(map[packet.FlowKey]export.Record)
	for _, r := range refs {
		if r.epoch != best {
			continue
		}
		for _, rec := range refDecode(t, s, r) {
			table[rec.Key] = rec
		}
	}
	return table, true
}

func refWindowDelta(t *testing.T, s *Store, refs []recordRef, w Window) map[packet.FlowKey]FlowDelta {
	end, found := refTableAt(t, s, refs, w.To)
	if !found {
		return map[packet.FlowKey]FlowDelta{}
	}
	var base map[packet.FlowKey]export.Record
	if w.From > 1 {
		base, _ = refTableAt(t, s, refs, w.From-1)
	}
	out := make(map[packet.FlowKey]FlowDelta, len(end))
	for key, rec := range end {
		d := FlowDelta{Key: key, Pkts: rec.Pkts, Bytes: rec.Bytes}
		if b, ok := base[key]; ok {
			d.Pkts -= b.Pkts
			d.Bytes -= b.Bytes
			if d.Pkts < 0 || d.Bytes < 0 {
				d.Pkts, d.Bytes = rec.Pkts, rec.Bytes
			}
		}
		if d.Pkts != 0 || d.Bytes != 0 {
			out[key] = d
		}
	}
	return out
}

func refRankDeltas(deltas map[packet.FlowKey]FlowDelta, k int, byBytes bool) []FlowDelta {
	out := make([]FlowDelta, 0, len(deltas))
	for _, d := range deltas {
		out = append(out, d)
	}
	metric := func(d *FlowDelta) float64 { return d.Pkts }
	if byBytes {
		metric = func(d *FlowDelta) float64 { return d.Bytes }
	}
	sort.Slice(out, func(i, j int) bool {
		mi, mj := metric(&out[i]), metric(&out[j])
		if mi != mj {
			return mi > mj
		}
		return keyLess(&out[i].Key, &out[j].Key)
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

func refHeavyChangers(t *testing.T, s *Store, refs []recordRef, older, newer Window, k int, byBytes bool) []FlowChange {
	dOld := refWindowDelta(t, s, refs, older)
	dNew := refWindowDelta(t, s, refs, newer)
	changes := make(map[packet.FlowKey]FlowChange, len(dNew)+len(dOld))
	for key, d := range dNew {
		changes[key] = FlowChange{Key: key, NewerPkts: d.Pkts, NewerBytes: d.Bytes}
	}
	for key, d := range dOld {
		c := changes[key]
		c.Key = key
		c.OlderPkts, c.OlderBytes = d.Pkts, d.Bytes
		changes[key] = c
	}
	out := []FlowChange{}
	for _, c := range changes {
		c.Pkts = c.NewerPkts - c.OlderPkts
		c.Bytes = c.NewerBytes - c.OlderBytes
		out = append(out, c)
	}
	metric := func(c *FlowChange) float64 { return c.Pkts }
	if byBytes {
		metric = func(c *FlowChange) float64 { return c.Bytes }
	}
	sort.Slice(out, func(i, j int) bool {
		mi, mj := abs(metric(&out[i])), abs(metric(&out[j]))
		if mi != mj {
			return mi > mj
		}
		return keyLess(&out[i].Key, &out[j].Key)
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// diffStore fills a store (rolling segments at segBytes, 0 for the
// default) with a seeded random history that has every
// shape the queries must agree on: two exporters appending under each
// epoch with overlapping flows (the same key at two sites, the later
// append winning), many flows sharing a value (ties fall to key order),
// flows that first appear late (absent from a base) or stop being reported
// (absent from an end), counters that move backward (a meter restart),
// and epochs that are skipped altogether.
func diffStore(t *testing.T, seed int64, segBytes int64) (*Store, int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := openTestStore(t, t.TempDir(), Options{})
	if segBytes > 0 {
		s.segBytes = segBytes
	}
	const flows = 300
	pkts := make([]float64, flows)
	epoch := int64(0)
	for step := 0; step < 14; step++ {
		epoch += 1 + int64(rng.Intn(2)) // epochs 1.., some skipped
		for site := 0; site < 2; site++ {
			var recs []export.Record
			for id := 0; id < flows; id++ {
				switch {
				case id%3 != site && id%3 != 2: // flows of the other site only
					continue
				case id > 200 && int64(id-200) > 8*epoch: // appears late
					continue
				case id < 20 && epoch > int64(id): // stops being reported
					continue
				}
				if rng.Intn(40) == 0 {
					pkts[id] = float64(rng.Intn(3)) // restart
				} else {
					pkts[id] += float64(rng.Intn(4)) * 5 // few distinct steps: ties, and flows that stand still
				}
				r := rec(id)
				r.Pkts, r.Bytes = pkts[id], pkts[id]*float64(100+id%3)
				r.LastUpdate = epoch
				recs = append(recs, r)
			}
			mustAppend(t, s, epoch, recs, epochStats(epoch))
		}
	}
	return s, epoch
}

func checkQueries(t *testing.T, s *Store, last int64) {
	t.Helper()
	refs, err := s.snapshotRefs()
	if err != nil {
		t.Fatal(err)
	}
	windows := []Window{
		{}, {From: 1}, {From: 0, To: last}, {From: 1, To: 1}, {From: -3, To: 4},
		{From: 2, To: last}, {From: last, To: last}, {From: 3, To: 7}, {From: 5, To: 5},
		{From: last + 4}, {To: last + 9}, {From: 6, To: 2},
	}
	for _, w := range windows {
		for _, k := range []int{0, -1, 1, 7, 100, 10_000} {
			for _, byBytes := range []bool{false, true} {
				got, err := s.TopK(w, k, byBytes)
				if err != nil {
					t.Fatal(err)
				}
				want := refRankDeltas(refWindowDelta(t, s, refs, w), k, byBytes)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("TopK(%+v, k=%d, bytes=%v): %d rows, reference %d\n got %v\nwant %v",
						w, k, byBytes, len(got), len(want), got, want)
				}
			}
		}
	}
	for i, older := range windows {
		newer := windows[(i+5)%len(windows)]
		for _, k := range []int{0, 3, 50} {
			for _, byBytes := range []bool{false, true} {
				got, err := s.HeavyChangers(older, newer, k, byBytes)
				if err != nil {
					t.Fatal(err)
				}
				want := refHeavyChangers(t, s, refs, older, newer, k, byBytes)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("HeavyChangers(%+v, %+v, k=%d, bytes=%v): %d rows, reference %d\n got %v\nwant %v",
						older, newer, k, byBytes, len(got), len(want), got, want)
				}
			}
		}
	}
	// The archival read-back goes through the same in-place decoder.
	for _, r := range refs {
		got, _, ok, err := s.EpochRecords(r.epoch)
		if err != nil || !ok {
			t.Fatalf("EpochRecords(%d): ok=%v err=%v", r.epoch, ok, err)
		}
		var want []export.Record
		for _, q := range refs {
			if q.epoch == r.epoch {
				want = refDecode(t, s, q) // the most recent append with this epoch
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("EpochRecords(%d) differs from the stream decoder's records", r.epoch)
		}
	}
}

// TestQueriesMatchMapReference: windowed top-k, heavy changers and epoch
// read-back equal the map-based reference over seeded random stores — one
// of them in 16 KiB segments, so windows start, end and span across rolled
// segment files.
func TestQueriesMatchMapReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		s, last := diffStore(t, seed, 0)
		checkQueries(t, s, last)
	}
	s, last := diffStore(t, 9, 16<<10)
	if st := s.Stats(); st.Segments < 4 {
		t.Fatalf("small-segment store spans %d segments, want several", st.Segments)
	}
	checkQueries(t, s, last)
}
