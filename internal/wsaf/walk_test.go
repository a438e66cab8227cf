package wsaf

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// checkOccupancy asserts the bitmap invariant: bit i is set exactly when
// slot i is used, no bit past the table is set, and Len is the popcount.
func checkOccupancy(t testing.TB, tab *Table) {
	t.Helper()
	for i := range tab.entries {
		if bit := tab.occ[i>>6]>>(i&63)&1 == 1; bit != tab.entries[i].used {
			t.Fatalf("slot %d: occupancy bit %v, used %v", i, bit, tab.entries[i].used)
		}
	}
	pop := 0
	for _, w := range tab.occ {
		pop += bits.OnesCount64(w)
	}
	if pop != tab.Len() {
		t.Fatalf("bitmap popcount %d, Len %d (%d slots)", pop, tab.Len(), len(tab.entries))
	}
}

// refSnapshot is the full scan the occupancy walk replaced, kept as the
// reference: every slot, in order, tested for used.
func refSnapshot(tab *Table, now int64) []Entry {
	var out []Entry
	for i := range tab.entries {
		e := &tab.entries[i]
		if !e.used || (now > 0 && tab.expired(e, now)) {
			continue
		}
		out = append(out, *e)
	}
	return out
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
		k := key(rng.Intn(4 * len(tab.entries)))
		selfLive := false
		for h, j := k.Hash64(tab.seed), 0; j < tab.probeLimit; j++ {
			e := &tab.entries[tab.slot(h, j)]
			if !e.used {
				break
			}
			selfLive = selfLive || e.Key == k
		}
		// A handful of distinct sizes, so top-k ties are common.
		o, _ := tab.Accumulate(k, float64(1+rng.Intn(5)), float64(40+rng.Intn(3)), now)
		after(o, selfLive)
	}
}

// TestOccupancyMatchesUsed drives tiny, tight tables through every way a
// slot changes hands and checks the bitmap after each operation. Dropped
// is the one outcome not forced: with a probe limit of at least one, a
// probe sequence with no free slot always leaves an eviction candidate,
// under either policy.
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
	for i := range big.entries {
		if big.entries[i] != (Entry{}) {
			t.Fatalf("Reset left slot %d = %+v", i, big.entries[i])
		}
	}
}

// TestWalkMatchesFullScan: Each and Snapshot off the bitmap equal the
// reference full scan element for element and in order, with the TTL filter
// on and off.
func TestWalkMatchesFullScan(t *testing.T) {
	for _, ttlOn := range []bool{false, true} {
		// A table smaller than one bitmap word, and one spanning many
		// prefetch windows plus a partial one.
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
				if got := tab.Snapshot(now); !slices.Equal(got, want) {
					t.Fatalf("entries %d ttl %d now %d: Snapshot differs from the full scan (%d vs %d entries)",
						entries, ttl, now, len(got), len(want))
				}
				prev, i := -1, 0
				tab.Each(now, func(slot int, e *Entry) {
					if slot <= prev || e != &tab.entries[slot] || *e != want[i] {
						t.Fatalf("Each visit %d: slot %d after %d, entry %+v, want %+v", i, slot, prev, *e, want[i])
					}
					prev, i = slot, i+1
				})
				if i != len(want) {
					t.Fatalf("Each visited %d entries, want %d", i, len(want))
				}
			}
		}
	}
}
