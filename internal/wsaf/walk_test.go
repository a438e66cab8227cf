package wsaf

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// checkOccupancy asserts the layout invariant: every nonzero slot word
// names a distinct entry whose slot points back to it, under a tag equal
// to the entry's FlowID, and there are exactly Len such words.
func checkOccupancy(t testing.TB, tab *Table) {
	t.Helper()
	named := make([]bool, len(tab.entries))
	words := 0
	for slot, w := range tab.slots {
		if w == 0 {
			continue
		}
		words++
		n := int(uint32(w)) - 1
		if n < 0 || n >= len(tab.entries) {
			t.Fatalf("slot %d names entry %d of %d", slot, n, len(tab.entries))
		}
		e := &tab.entries[n]
		if named[n] || int(e.slot) != slot || uint32(w>>32) != e.FlowID {
			t.Fatalf("slot %d: word %#x names entry %d (named twice %v, its slot %d, FlowID %#x)",
				slot, w, n, named[n], e.slot, e.FlowID)
		}
		named[n] = true
	}
	if words != tab.Len() || len(tab.entries) != tab.Len() {
		t.Fatalf("%d slot words, %d entries, Len %d", words, len(tab.entries), tab.Len())
	}
}

// refSnapshot is a scan of the slots in slot order, reading each entry
// through its slot word: the live set Each must visit, in another order.
func refSnapshot(tab *Table, now int64) []Entry {
	var out []Entry
	for _, w := range tab.slots {
		if w == 0 {
			continue
		}
		if e := &tab.entries[uint32(w)-1]; now <= 0 || !tab.expired(e, now) {
			out = append(out, *e)
		}
	}
	return out
}

// byKey returns es sorted by key, for comparing live sets whatever order
// they were listed in.
func byKey(es []Entry) []Entry {
	es = slices.Clone(es)
	slices.SortFunc(es, func(a, b Entry) int {
		x, y := &a.Key, &b.Key
		return cmp.Or(bytes.Compare(x.SrcIP[:], y.SrcIP[:]), bytes.Compare(x.DstIP[:], y.DstIP[:]),
			cmp.Compare(x.SrcPort, y.SrcPort), cmp.Compare(x.DstPort, y.DstPort), cmp.Compare(x.Proto, y.Proto))
	})
	return es
}

// churn drives ops seeded random accumulates over a keyspace a few times
// the table, with time creeping forward and now and then jumping past any
// TTL, calling after with each outcome. selfLive reports whether the key
// already had a (possibly expired) entry on its probe sequence, which tells
// a TTL self-reclaim from the reclaim of somebody else's expired slot.
func churn(tab *Table, rng *rand.Rand, ops int, after func(o Outcome, selfLive bool)) {
	now := int64(1)
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(1000); {
		case r < 10:
			now += 10_000
		default:
			now += int64(rng.Intn(4))
		}
		k := key(rng.Intn(4 * tab.Capacity()))
		selfLive := false
		for h, j := k.Hash64(tab.seed), 0; j < tab.probeLimit; j++ {
			w := tab.slots[tab.slot(h, j)]
			if w == 0 {
				break
			}
			selfLive = selfLive || tab.entries[uint32(w)-1].Key == k
		}
		// A handful of distinct sizes, so top-k ties are common.
		o, _ := tab.Accumulate(k, float64(1+rng.Intn(5)), float64(40+rng.Intn(3)), now)
		after(o, selfLive)
	}
}

// TestOccupancyMatchesUsed drives tiny, tight tables through every way a
// slot changes hands and checks the slot words against the dense entries
// after each operation.
func TestOccupancyMatchesUsed(t *testing.T) {
	type seen struct{ insert, update, selfReclaim, slotReclaim, evict, reset bool }
	for _, eviction := range []Eviction{EvictSecondChance, EvictFirst} {
		for _, ttl := range []int64{0, 60} {
			var got seen
			for _, entries := range []int{8, 16, 64, 128} {
				for probeLimit := 2; probeLimit <= 4; probeLimit++ {
					tab := MustNew(Config{Entries: entries, ProbeLimit: probeLimit, TTL: ttl, Eviction: eviction})
					rng := rand.New(rand.NewSource(int64(entries*10 + probeLimit)))
					churn(tab, rng, 3000, func(o Outcome, selfLive bool) {
						switch o {
						case Inserted:
							got.insert = true
						case Updated:
							got.update = true
						case Reclaimed:
							got.selfReclaim = got.selfReclaim || selfLive
							got.slotReclaim = got.slotReclaim || !selfLive
						case Evicted:
							got.evict = true
						}
						checkOccupancy(t, tab)
						if rng.Intn(500) == 0 {
							tab.Reset()
							got.reset = true
							checkOccupancy(t, tab)
							if tab.Len() != 0 || len(refSnapshot(tab, 0)) != 0 {
								t.Fatalf("Reset left %d entries", tab.Len())
							}
						}
					})
				}
			}
			want := seen{insert: true, update: true, evict: true, reset: true,
				selfReclaim: ttl > 0, slotReclaim: ttl > 0}
			if got != want {
				t.Errorf("eviction %d ttl %d: exercised %+v, want %+v", eviction, ttl, got, want)
			}
		}
	}

	big := MustNew(Config{Entries: 1 << 16, ProbeLimit: 4, TTL: 5000})
	rng := rand.New(rand.NewSource(99))
	n := 0
	churn(big, rng, 1<<18, func(Outcome, bool) {
		if n++; n%(1<<14) == 0 {
			checkOccupancy(t, big)
		}
	})
	big.Reset()
	checkOccupancy(t, big)
	for slot, w := range big.slots {
		if w != 0 {
			t.Fatalf("Reset left slot %d = %#x", slot, w)
		}
	}
}

// TestWalkMatchesFullScan: Each and Snapshot list the live set a scan of
// the slot words finds, with the TTL filter on and off, and Each visits
// the dense entries in index order.
func TestWalkMatchesFullScan(t *testing.T) {
	for _, ttlOn := range []bool{false, true} {
		for _, entries := range []int{16, 4096} {
			ttl := int64(0)
			if ttlOn {
				ttl = int64(entries) // in churn's time, about two thirds as many operations
			}
			tab := MustNew(Config{Entries: entries, ProbeLimit: 4, TTL: ttl})
			rng := rand.New(rand.NewSource(int64(entries) + ttl))
			var last int64
			churn(tab, rng, 3*entries, func(Outcome, bool) {})
			for i := range tab.entries {
				last = max(last, tab.entries[i].LastUpdate)
			}
			for _, now := range []int64{0, last - ttl/2, last, last + 1_000_000} {
				want := refSnapshot(tab, now)
				if ttl > 0 && now == last && (len(want) == 0 || len(want) == tab.Len()) {
					t.Fatalf("ttl %d: %d of %d entries live at now — the expiry filter is not exercised", ttl, len(want), tab.Len())
				}
				got := tab.Snapshot(now)
				if !slices.Equal(byKey(got), byKey(want)) {
					t.Fatalf("entries %d ttl %d now %d: Snapshot differs from the slot scan (%d vs %d entries)",
						entries, ttl, now, len(got), len(want))
				}
				prev, i := -1, 0
				tab.Each(now, func(n int, e *Entry) {
					if n <= prev || e != &tab.entries[n] || *e != got[i] {
						t.Fatalf("Each visit %d: index %d after %d, entry %+v, want %+v", i, n, prev, *e, got[i])
					}
					prev, i = n, i+1
				})
				if i != len(got) {
					t.Fatalf("Each visited %d entries, want %d", i, len(got))
				}
			}
		}
	}
}
