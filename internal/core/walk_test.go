package core

import (
	"slices"
	"testing"

	"instameasure/internal/hotcache"
	"instameasure/internal/packet"
	"instameasure/internal/wsaf"
)

// refSnapshot is the merge the slot join replaced, kept as the reference:
// the table's snapshot (itself checked against a full scan in wsaf's
// tests), a key→index map over all of it, cache deltas merged through the
// map, cache-only flows appended. merged and orphans count the two kinds
// of cached flow it met.
func refSnapshot(e *Engine) (snap []wsaf.Entry, merged, orphans int) {
	snap = e.table.Snapshot(e.lastTS)
	if e.cache == nil {
		return snap, 0, 0
	}
	idx := make(map[packet.FlowKey]int, len(snap))
	for i := range snap {
		idx[snap[i].Key] = i
	}
	e.cache.Each(func(ce *hotcache.Entry) {
		if i, ok := idx[ce.Key]; ok {
			snap[i].Pkts += float64(ce.Pkts)
			snap[i].Bytes += float64(ce.Bytes)
			snap[i].LastUpdate = max(snap[i].LastUpdate, ce.LastUpdate)
			merged++
			return
		}
		if ce.Pkts == 0 && ce.Bytes == 0 {
			return
		}
		h := ce.Hash
		snap = append(snap, wsaf.Entry{FlowID: uint32(h ^ (h >> 32)), Key: ce.Key,
			Pkts: float64(ce.Pkts), Bytes: float64(ce.Bytes),
			FirstSeen: ce.FirstSeen, LastUpdate: ce.LastUpdate})
		orphans++
	})
	return snap, merged, orphans
}

// TestSnapshotMatchesMapMerge: Snapshot, with the cache on and off and the
// TTL on and off, equals the reference element for element and in order. The cached runs hold merged flows and, under the TTL,
// cache-only ones.
func TestSnapshotMatchesMapMerge(t *testing.T) {
	tr := batchTrace(t, 20_000, 300_000, 23)
	for _, cacheEntries := range []int{0, 256} {
		// The trace spans ~0.3 s; 40 ms expires most of the table.
		for _, ttl := range []int64{0, 40e6} {
			e := testEngine(t, Config{WSAFEntries: 1 << 12, ProbeLimit: 4,
				HotCacheEntries: cacheEntries, WSAFTTL: ttl, Seed: 3})
			// In bursts: a promotion takes effect at the next burst.
			for i := 0; i < len(tr.Packets); i += 256 {
				e.ProcessBatch(tr.Packets[i:min(i+256, len(tr.Packets))])
			}

			want, merged, orphans := refSnapshot(e)
			// A cached flow's hits bypass the table, so under a TTL its
			// table entry idles out and the flow lives on in the cache alone.
			if cacheEntries > 0 && (merged == 0 || (ttl > 0 && orphans == 0)) {
				t.Fatalf("cache %d ttl %d: %d merged and %d cache-only flows — both merge paths must run",
					cacheEntries, ttl, merged, orphans)
			}
			if ttl > 0 && len(want)-orphans >= e.table.Len() {
				t.Fatalf("ttl %d: nothing expired", ttl)
			}
			if got := e.Snapshot(); !slices.Equal(got, want) {
				t.Fatalf("cache %d ttl %d: Snapshot differs from the map merge (%d vs %d flows)",
					cacheEntries, ttl, len(got), len(want))
			}
		}
	}
}
