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
	e.cache.Each(func(_ int, ce *hotcache.Entry) {
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

// staleSlots counts the cached flows whose recorded WSAF entry index no
// longer holds their live entry: another key took the entry over, or their
// own entry there expired. Those are the flows the merge must not merge.
func staleSlots(e *Engine) (taken, expired int) {
	type entryState struct {
		key  packet.FlowKey
		live bool
	}
	entries := map[int]*entryState{}
	e.table.Each(0, func(n int, en *wsaf.Entry) { entries[n] = &entryState{key: en.Key} })
	e.table.Each(e.lastTS, func(n int, _ *wsaf.Entry) { entries[n].live = true })
	e.cache.Each(func(_ int, ce *hotcache.Entry) {
		switch s := entries[int(ce.Index)]; {
		case s == nil || s.key != ce.Key:
			taken++
		case !s.live:
			expired++
		}
	})
	return taken, expired
}

// mergeRun is one TestSnapshotMatchesMapMerge configuration.
type mergeRun struct {
	cfg      Config
	eviction wsaf.Eviction // 0 keeps the engine's default table
	burst    int
}

// mergeSeen is what a run's cached flows went through, summed over its
// checks: flows the reference merged and cache-only ones, recorded slots
// another key took, entries expired under their flow's recorded slot,
// same-burst re-admissions (AlreadyCached) that moved a flow to a new
// slot, and expired table entries of any flow.
type mergeSeen struct{ merged, orphans, taken, expired, moved, idle int }

// run feeds pkts in bursts and compares Snapshot against the map merge at
// eight points.
func (r mergeRun) run(t *testing.T, pkts []packet.Packet) (seen mergeSeen) {
	t.Helper()
	e := testEngine(t, r.cfg)
	if r.eviction != 0 {
		e.table = wsaf.MustNew(wsaf.Config{Entries: e.cfg.WSAFEntries, ProbeLimit: e.cfg.ProbeLimit,
			TTL: e.cfg.WSAFTTL, Eviction: r.eviction, Seed: e.cfg.HashSeed})
	}
	if e.cache != nil {
		// A pass event fires after its admission. A flow cached at two
		// events under one residency (same FirstSeen — timestamps rise
		// packet by packet) but at two indexes was moved by AlreadyCached.
		type residency struct {
			firstSeen int64
			index     uint32
		}
		last := map[packet.FlowKey]residency{}
		e.OnPass(func(ev PassEvent) {
			ce, ok := e.cache.Lookup(ev.Key.Hash64(e.cfg.HashSeed), ev.Key)
			if !ok {
				return
			}
			if was, ok := last[ev.Key]; ok && was.firstSeen == ce.FirstSeen && was.index != ce.Index {
				seen.moved++
			}
			last[ev.Key] = residency{ce.FirstSeen, ce.Index}
		})
	}
	check := max(1, len(pkts)/8)
	for i := 0; i < len(pkts); i += r.burst {
		end := min(i+r.burst, len(pkts))
		e.ProcessBatch(pkts[i:end])
		if end/check == i/check && end != len(pkts) {
			continue
		}
		want, merged, orphans := refSnapshot(e)
		seen.merged += merged
		seen.orphans += orphans
		seen.idle += e.table.Len() - (len(want) - orphans)
		if e.cache != nil {
			taken, expired := staleSlots(e)
			seen.taken += taken
			seen.expired += expired
		}
		if got := e.Snapshot(); !slices.Equal(got, want) {
			t.Fatalf("%+v after %d packets: Snapshot differs from the map merge (%d vs %d flows)",
				r, end, len(got), len(want))
		}
	}
	return seen
}

// movePrefix is churn's opening: 128 groups of seven packets on a
// 2^10-slot table under hashSeed, each built so that within one burst a
// flow is admitted, loses its WSAF slot and is re-admitted
// (AlreadyCached) at another. Group k owns slots 8k..8k+2: A lands on
// 8k and B on 8k+2; X, whose first probe is A's slot, lands on 8k+1 and
// is admitted; Y, whose first probe is 8k+1, finds X and B there and
// evicts one of them — X, under EvictFirst; then X's second packet
// re-inserts it, at 8k under EvictFirst. Every packet passes a regulator
// of 2-bit vectors.
func movePrefix(hashSeed uint64) []packet.Packet {
	spare := map[uint64][]packet.FlowKey{}
	next := uint32(0)
	keyAt := func(slot uint64) packet.FlowKey {
		for len(spare[slot]) == 0 {
			next++
			k := packet.V4Key(0x0B000000+next, 0x0C000001, 1, 1, packet.ProtoUDP)
			h := k.Hash64(hashSeed) & 1023
			spare[h] = append(spare[h], k)
		}
		k := spare[slot][0]
		spare[slot] = spare[slot][1:]
		return k
	}
	var pkts []packet.Packet
	for k := uint64(0); k < 128; k++ {
		a, b, x, y := keyAt(8*k), keyAt(8*k+2), keyAt(8*k), keyAt(8*k+1)
		for _, key := range []packet.FlowKey{a, b, x, y, x, a, b} {
			pkts = append(pkts, packet.Packet{Key: key, Len: 100, TS: int64(len(pkts) + 1)})
		}
	}
	return pkts
}

// TestSnapshotMatchesMapMerge: Snapshot, with the cache on and off and the
// TTL on and off, equals the reference element for element and in order,
// at eight points of a run. The cached runs hold merged flows and, under
// the TTL, cache-only ones.
//
// The churn leg runs a 2^10-slot table with a probe limit of 2, so slots
// change hands all the time, under both eviction policies, TTL on and
// off, in bursts of 1, 7 and 256. Each configuration
// must reach every stale-slot case open to it — a recorded slot another
// key took; under a TTL, a cached flow's entry expired at its slot; in
// bursts of more than one, an AlreadyCached admission that moved a flow —
// so none passes vacuously.
func TestSnapshotMatchesMapMerge(t *testing.T) {
	tr := batchTrace(t, 20_000, 300_000, 23)
	for _, cacheEntries := range []int{0, 256} {
		// The trace spans ~0.3 s; 40 ms expires most of the table.
		for _, ttl := range []int64{0, 40e6} {
			// In bursts: a promotion takes effect at the next burst.
			r := mergeRun{cfg: Config{WSAFEntries: 1 << 12, ProbeLimit: 4,
				HotCacheEntries: cacheEntries, WSAFTTL: ttl, Seed: 3}, burst: 256}
			seen := r.run(t, tr.Packets)
			// A cached flow's hits bypass the table, so under a TTL its
			// table entry idles out and the flow lives on in the cache alone.
			if cacheEntries > 0 && (seen.merged == 0 || (ttl > 0 && seen.orphans == 0)) {
				t.Fatalf("cache %d ttl %d: %+v — both merge paths must run", cacheEntries, ttl, seen)
			}
			if ttl > 0 && seen.idle == 0 {
				t.Fatalf("ttl %d: nothing expired", ttl)
			}
		}
	}

	churn := movePrefix(7)
	for _, p := range tr.Packets {
		p.TS += 1000
		churn = append(churn, p)
	}
	for _, eviction := range []wsaf.Eviction{wsaf.EvictSecondChance, wsaf.EvictFirst} {
		// Every packet passes through, so a slot changes hands every
		// thousand packets or so (~1.5 ms); a 0.3 ms TTL lets a cached
		// flow's idle entry expire before another key takes its slot.
		for _, ttl := range []int64{0, 3e5} {
			for _, burst := range []int{1, 7, 256} {
				r := mergeRun{cfg: Config{SketchMemoryBytes: 1 << 10, VectorBits: 2, WSAFEntries: 1 << 10, ProbeLimit: 2, WSAFTTL: ttl, Seed: 7,
					HotCacheEntries: 256}, eviction: eviction, burst: burst}
				seen := r.run(t, churn)
				if seen.merged == 0 || seen.taken == 0 || (ttl > 0 && seen.expired == 0) || (burst > 1 && seen.moved == 0) {
					t.Errorf("eviction %d ttl %d burst %d: %+v — a stale-slot case never ran",
						eviction, ttl, burst, seen)
				}
			}
		}
	}
}

// FuzzEachMatchesMapMerge: for any packet sequence, table and cache size,
// TTL and burst size, Snapshot equals the map merge every 128 packets.
// data is read in pairs — a flow out of 256 and a run of 1–32 of its
// packets — and replayed up to four times; a regulator of 2-bit vectors
// passes every packet through, so even a short input churns a table of
// 8–1 024 slots and a cache of 8–128 entries. The unnamed bool is unread;
// the committed corpus sets it, so the signature keeps it.
func FuzzEachMatchesMapMerge(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(6), false, false, []byte{1, 31, 2, 31, 3, 31, 1, 4, 9, 20})
	f.Add(uint8(0), uint8(0), uint8(255), true, false, []byte{7, 3, 8, 3, 7, 30, 9, 2, 10, 2, 7, 30})
	f.Add(uint8(7), uint8(15), uint8(0), true, true, []byte{0, 9, 255, 9, 128, 31, 0, 31})
	f.Fuzz(func(t *testing.T, tableBits, cacheSets, burst uint8, ttl, _ bool, data []byte) {
		cfg := Config{SketchMemoryBytes: 256, VectorBits: 2, ProbeLimit: 2, Seed: 11,
			WSAFEntries: 8 << (tableBits % 8), HotCacheEntries: 8 * (1 + int(cacheSets%16))}
		if ttl {
			cfg.WSAFTTL = 20_000 // twenty packets' time
		}
		var pkts []packet.Packet
		for pass := 0; pass < 4 && len(pkts) < 1<<15; pass++ {
			for i := 0; i+1 < len(data); i += 2 {
				k := packet.V4Key(uint32(data[i])+1, 0x0A000001, 1000, 80, packet.ProtoTCP)
				for n := 0; n <= int(data[i+1]%32); n++ {
					pkts = append(pkts, packet.Packet{Key: k, Len: uint16(64 + n), TS: int64(len(pkts)+1) * 1000})
				}
			}
		}
		e := testEngine(t, cfg)
		b := 1 + int(burst)
		for i := 0; i < len(pkts); i += b {
			end := min(i+b, len(pkts))
			e.ProcessBatch(pkts[i:end])
			if end/128 == i/128 && end != len(pkts) {
				continue
			}
			if want, _, _ := refSnapshot(e); !slices.Equal(e.Snapshot(), want) {
				t.Fatalf("after %d of %d packets: Snapshot differs from the map merge", end, len(pkts))
			}
		}
	})
}

// TestEachAllocatesNothing: with the cache on, a warm Each allocates
// nothing — the merge's scratch is the engine's, sized to the cache.
func TestEachAllocatesNothing(t *testing.T) {
	tr := batchTrace(t, 5_000, 100_000, 31)
	e := testEngine(t, Config{WSAFEntries: 1 << 12, HotCacheEntries: 256, WSAFTTL: 40e6, Seed: 3})
	e.ProcessBatch(tr.Packets)
	if e.cache.Len() == 0 {
		t.Fatal("nothing cached")
	}
	n := 0
	if allocs := testing.AllocsPerRun(10, func() { e.Each(func(*wsaf.Entry) { n++ }) }); allocs != 0 {
		t.Errorf("Each allocated %.0f times per call", allocs)
	}
}
