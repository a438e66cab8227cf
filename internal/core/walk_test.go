package core

import (
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

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

// refTopK is a stable full sort of the reference snapshot (equal metric:
// snapshot order) cut at k.
func refTopK(snap []wsaf.Entry, k int, metric func(*wsaf.Entry) float64) []wsaf.Entry {
	snap = slices.Clone(snap)
	sort.SliceStable(snap, func(i, j int) bool { return metric(&snap[i]) > metric(&snap[j]) })
	return snap[:max(0, min(k, len(snap)))]
}

// TestSnapshotMatchesMapMerge: Snapshot and both top-k, with the cache on
// and off and the TTL on and off, equal the reference element for element
// and in order. The cached runs hold merged flows and, under the TTL,
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
			for _, k := range []int{-1, 0, 1, 100, len(want), len(want) + 5} {
				byPkts := func(en *wsaf.Entry) float64 { return en.Pkts }
				if got := e.TopKPackets(k); !slices.Equal(got, refTopK(want, k, byPkts)) {
					t.Fatalf("cache %d ttl %d: TopKPackets(%d) differs from the full stable sort", cacheEntries, ttl, k)
				}
				byBytes := func(en *wsaf.Entry) float64 { return en.Bytes }
				if got := e.TopKBytes(k); !slices.Equal(got, refTopK(want, k, byBytes)) {
					t.Fatalf("cache %d ttl %d: TopKBytes(%d) differs from the full stable sort", cacheEntries, ttl, k)
				}
			}
		}
	}
}

// TestTopKAllocatesForKNotLive: without the cache a top-k selects during
// the walk, so what it allocates is a function of k alone — ten times the
// live flows cost not one byte more.
func TestTopKAllocatesForKNotLive(t *testing.T) {
	const k = 1000
	measure := func(live int) (allocs float64, bytes uint64) {
		e := testEngine(t, Config{WSAFEntries: 1 << 18, Seed: 3})
		for i := 0; e.table.Len() < live; i++ {
			key := packet.V4Key(uint32(i), 9, uint16(i), 443, packet.ProtoTCP)
			e.table.Accumulate(key, float64(1+i%613), float64(i), 1)
		}
		query := func() {
			if top := e.TopKPackets(k); len(top) != k {
				t.Fatalf("top-k of %d live flows holds %d", live, len(top))
			}
		}
		allocs = testing.AllocsPerRun(5, query)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		query()
		runtime.ReadMemStats(&m1)
		return allocs, m1.TotalAlloc - m0.TotalAlloc
	}
	allocsSmall, bytesSmall := measure(5_000)
	allocsLarge, bytesLarge := measure(50_000)
	if allocsLarge != allocsSmall || bytesLarge != bytesSmall {
		t.Errorf("top-%d allocated %v times / %d B over 5k live flows, %v times / %d B over 50k", k,
			allocsSmall, bytesSmall, allocsLarge, bytesLarge)
	}
	if limit := uint64(8 * k * unsafe.Sizeof(wsaf.Entry{})); bytesLarge > limit {
		t.Errorf("top-%d allocated %d B, above %d (8 entries' worth per row)", k, bytesLarge, limit)
	}
}
