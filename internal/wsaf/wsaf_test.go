package wsaf

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"instameasure/internal/packet"
)

func key(i int) packet.FlowKey {
	return packet.V4Key(uint32(i), uint32(i)*7+1, uint16(i%60000)+1, 80, packet.ProtoTCP)
}

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, -4, 3, 100, 1<<20 + 1} {
		if _, err := New(Config{Entries: n}); !errors.Is(err, ErrEntriesPow2) {
			t.Errorf("Entries=%d: err = %v, want ErrEntriesPow2", n, err)
		}
	}
	if _, err := New(Config{Entries: 1024}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestProbeLimitClamped(t *testing.T) {
	tab := MustNew(Config{Entries: 4, ProbeLimit: 100})
	if tab.probeLimit != 4 {
		t.Errorf("probe limit %d, want clamped to 4", tab.probeLimit)
	}
}

func TestAccumulateInsertAndLookup(t *testing.T) {
	tab := MustNew(Config{Entries: 256})
	k := key(1)
	outcome, _ := tab.Accumulate(k, 10, 5000, 100)
	if outcome != Inserted {
		t.Fatalf("first accumulate outcome = %v, want Inserted", outcome)
	}
	e, ok := tab.Lookup(k, 100)
	if !ok {
		t.Fatal("lookup after insert failed")
	}
	if e.Pkts != 10 || e.Bytes != 5000 || e.FirstSeen != 100 || e.LastUpdate != 100 {
		t.Errorf("entry = %+v", e)
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d, want 1", tab.Len())
	}
}

func TestAccumulateUpdate(t *testing.T) {
	tab := MustNew(Config{Entries: 256})
	k := key(2)
	tab.Accumulate(k, 10, 1000, 100)
	outcome, _ := tab.Accumulate(k, 5, 500, 200)
	if outcome != Updated {
		t.Fatalf("second accumulate outcome = %v, want Updated", outcome)
	}
	e, _ := tab.Lookup(k, 200)
	if e.Pkts != 15 || e.Bytes != 1500 {
		t.Errorf("accumulated entry = %+v, want 15/1500", e)
	}
	if e.FirstSeen != 100 || e.LastUpdate != 200 {
		t.Errorf("timestamps = %d/%d, want 100/200", e.FirstSeen, e.LastUpdate)
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d, want 1 after update", tab.Len())
	}
}

func TestHashedAPIMatchesKeyed(t *testing.T) {
	// AccumulateHashed/LookupHashed with the caller-computed hash must be
	// indistinguishable from the keyed wrappers: same outcomes, same table
	// state, same lookups.
	keyed := MustNew(Config{Entries: 256, Seed: 7})
	hashed := MustNew(Config{Entries: 256, Seed: 7})
	for i := 0; i < 400; i++ {
		k := key(i % 90) // revisit keys so Updated paths run too
		now := int64(i) * 10
		oK, _ := keyed.Accumulate(k, float64(i+1), float64(i)*100, now)
		oH, live := hashed.AccumulateHashed(k.Hash64(hashed.seed), k, float64(i+1), float64(i)*100, now)
		if oK != oH {
			t.Fatalf("packet %d: keyed outcome %v, hashed outcome %v", i, oK, oH)
		}
		if oH != Dropped && live == nil {
			t.Fatalf("packet %d: outcome %v returned nil live entry", i, oH)
		}
		if live != nil && live.Key != k {
			t.Fatalf("packet %d: live entry key %v, want %v", i, live.Key, k)
		}
	}
	for i := 0; i < 90; i++ {
		k := key(i)
		eK, okK := keyed.Lookup(k, 5000)
		eH, okH := hashed.LookupHashed(k.Hash64(hashed.seed), k, 5000)
		if okK != okH || eK != eH {
			t.Fatalf("key %d: keyed lookup (%+v,%v) != hashed (%+v,%v)", i, eK, okK, eH, okH)
		}
	}
}

func TestAccumulateHashedLiveEntryTotals(t *testing.T) {
	tab := MustNew(Config{Entries: 64})
	k := key(3)
	h := k.Hash64(tab.seed)
	if _, live := tab.AccumulateHashed(h, k, 4, 400, 10); live == nil || live.Pkts != 4 || live.Bytes != 400 {
		t.Fatalf("insert live entry = %+v, want 4/400", live)
	}
	_, live := tab.AccumulateHashed(h, k, 6, 600, 20)
	if live == nil || live.Pkts != 10 || live.Bytes != 1000 {
		t.Fatalf("update live entry = %+v, want accumulated 10/1000", live)
	}
	if live.FirstSeen != 10 || live.LastUpdate != 20 {
		t.Errorf("live entry timestamps = %d/%d, want 10/20", live.FirstSeen, live.LastUpdate)
	}
}

// TestSlotOfMatchesSlotHashed: the slot SlotOf reads off every live entry
// AccumulateHashed returns — insert, update, reclaim or eviction — is the
// slot a probe for the key finds right after.
func TestSlotOfMatchesSlotHashed(t *testing.T) {
	tab := MustNew(Config{Entries: 64, ProbeLimit: 4, TTL: 50})
	rng := rand.New(rand.NewSource(5))
	seen := map[Outcome]bool{}
	for i, now := 0, int64(1); i < 5000; i++ {
		now += int64(rng.Intn(3))
		k := key(rng.Intn(256))
		h := k.Hash64(tab.seed)
		o, live := tab.AccumulateHashed(h, k, 1, 1, now)
		if live == nil {
			continue
		}
		seen[o] = true
		if got, want := tab.SlotOf(live), tab.SlotHashed(h, k, now); got != want {
			t.Fatalf("op %d (%v): SlotOf = %d, SlotHashed = %d", i, o, got, want)
		}
	}
	for _, o := range []Outcome{Updated, Inserted, Reclaimed, Evicted} {
		if !seen[o] {
			t.Errorf("outcome %v never reached", o)
		}
	}
}

func TestAccumulateHashedEvictionReturnsNewEntry(t *testing.T) {
	// Tiny table, linear-fill until an eviction; the returned live entry
	// must describe the newly placed flow, and the keyed wrapper must still
	// surface a copy of the victim.
	tab := MustNew(Config{Entries: 4, ProbeLimit: 4})
	for i := 0; i < 4; i++ {
		tab.Accumulate(key(i), 100, 100, 1)
	}
	var newKey packet.FlowKey
	for i := 4; ; i++ {
		newKey = key(i)
		outcome, live := tab.AccumulateHashed(newKey.Hash64(tab.seed), newKey, 1, 1, 2)
		if outcome == Evicted {
			if live == nil || live.Key != newKey || live.Pkts != 1 {
				t.Fatalf("evict live entry = %+v, want fresh entry for %v", live, newKey)
			}
			break
		}
		if outcome == Dropped {
			continue // every candidate slot recently referenced; try another key
		}
	}

	// Keyed wrapper: victim copy survives subsequent table mutation.
	tab2 := MustNew(Config{Entries: 4, ProbeLimit: 4})
	for i := 0; i < 4; i++ {
		tab2.Accumulate(key(i), float64(100+i), 100, 1)
	}
	for i := 4; ; i++ {
		outcome, victim := tab2.Accumulate(key(i), 1, 1, 2)
		if outcome == Evicted {
			if victim == nil || victim.Pkts < 100 {
				t.Fatalf("victim = %+v, want one of the original heavy entries", victim)
			}
			saved := *victim
			tab2.Accumulate(key(i), 9, 9, 3) // mutate table; copy must not alias
			if *victim != saved {
				t.Error("victim entry aliases live table state")
			}
			break
		}
	}
}

func TestLookupMissing(t *testing.T) {
	tab := MustNew(Config{Entries: 64})
	if _, ok := tab.Lookup(key(9), 0); ok {
		t.Error("lookup of absent key succeeded")
	}
}

func TestManyFlowsAllFindable(t *testing.T) {
	tab := MustNew(Config{Entries: 4096, ProbeLimit: 32})
	const n = 2000 // ~49% load
	for i := 0; i < n; i++ {
		tab.Accumulate(key(i), float64(i+1), float64(i+1)*100, int64(i))
	}
	missing := 0
	for i := 0; i < n; i++ {
		e, ok := tab.Lookup(key(i), int64(n))
		if !ok {
			missing++
			continue
		}
		if e.Pkts != float64(i+1) {
			t.Errorf("flow %d: Pkts = %v, want %d", i, e.Pkts, i+1)
		}
	}
	// A handful may have been evicted by clock pressure; nearly all
	// must survive at 50% load.
	if missing > n/100 {
		t.Errorf("%d of %d flows missing at 49%% load", missing, n)
	}
}

func TestTTLGarbageCollection(t *testing.T) {
	tab := MustNew(Config{Entries: 64, TTL: 1000})
	k := key(3)
	tab.Accumulate(k, 1, 100, 0)
	if _, ok := tab.Lookup(k, 500); !ok {
		t.Fatal("entry must be live before TTL")
	}
	if _, ok := tab.Lookup(k, 2000); ok {
		t.Error("entry must expire after TTL")
	}
	// Snapshot must skip expired entries when now is provided.
	if got := len(tab.Snapshot(2000)); got != 0 {
		t.Errorf("snapshot has %d entries after expiry, want 0", got)
	}
	if got := len(tab.Snapshot(0)); got != 1 {
		t.Errorf("snapshot(0) has %d entries, want 1 (TTL filter off)", got)
	}
}

func TestExpiredSlotReclaimed(t *testing.T) {
	tab := MustNew(Config{Entries: 64, TTL: 1000})
	a := key(4)
	tab.Accumulate(a, 1, 1, 0)
	// Find a key probing into the same first slot so reclaim is observable.
	target := int((a.Hash64(0)) & tab.mask)
	var b packet.FlowKey
	for i := 100; ; i++ {
		b = key(i)
		if int(b.Hash64(0)&tab.mask) == target {
			break
		}
	}
	outcome, _ := tab.Accumulate(b, 2, 2, 5000) // a is long expired
	if outcome != Reclaimed {
		t.Fatalf("outcome = %v, want Reclaimed", outcome)
	}
	if _, ok := tab.Lookup(b, 5000); !ok {
		t.Error("reclaiming flow must be findable")
	}
	if tab.Stats().Reclaims != 1 {
		t.Errorf("Reclaims = %d, want 1", tab.Stats().Reclaims)
	}
}

func TestSecondChanceEviction(t *testing.T) {
	// A 4-entry table with probe limit 4: every slot is in every probe
	// window, so a 5th flow forces the clock hand to evict.
	tab := MustNew(Config{Entries: 4, ProbeLimit: 4})
	for i := 0; i < 4; i++ {
		tab.Accumulate(key(i), float64(10*(i+1)), 1, int64(i))
	}
	if tab.Len() != 4 {
		t.Fatalf("setup: Len = %d, want 4", tab.Len())
	}
	outcome, victim := tab.Accumulate(key(99), 1000, 1, 100)
	if outcome != Evicted {
		t.Fatalf("outcome = %v, want Evicted", outcome)
	}
	if victim == nil {
		t.Fatal("eviction must report the victim")
	}
	if _, ok := tab.Lookup(key(99), 100); !ok {
		t.Error("newly inserted flow missing after eviction")
	}
	if tab.Len() != 4 {
		t.Errorf("Len = %d after eviction, want 4", tab.Len())
	}
	if tab.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", tab.Stats().Evictions)
	}
}

func TestSecondChanceProtectsRecentlyUpdated(t *testing.T) {
	tab := MustNew(Config{Entries: 4, ProbeLimit: 4})
	for i := 0; i < 4; i++ {
		tab.Accumulate(key(i), 10, 1, int64(i))
	}
	// First eviction clears every chance bit and evicts one entry; the
	// survivors have chance=false. Re-touch flow 0 to re-arm its bit.
	tab.Accumulate(key(90), 100, 1, 50)
	tab.Accumulate(key(0), 1, 1, 60)
	// Next eviction must spare flow 0 (chance set) and take an unarmed
	// entry instead.
	tab.Accumulate(key(91), 100, 1, 70)
	if _, ok := tab.Lookup(key(0), 70); !ok {
		t.Error("recently updated flow was evicted despite its second chance")
	}
}

func TestMicePreferredForEviction(t *testing.T) {
	// With all chance bits armed, the clock pass clears them and the
	// fallback evicts the minimum-packet entry.
	tab := MustNew(Config{Entries: 4, ProbeLimit: 4})
	sizes := []float64{500, 3, 400, 200}
	for i, s := range sizes {
		tab.Accumulate(key(i), s, 1, int64(i))
	}
	_, victim := tab.Accumulate(key(50), 1000, 1, 10)
	if victim == nil {
		t.Fatal("expected an eviction")
	}
	if victim.Pkts != 3 {
		t.Errorf("evicted Pkts = %v, want the mouse (3)", victim.Pkts)
	}
}

func TestTriangularProbingCoversAllSlots(t *testing.T) {
	// Property underpinning the paper's h(k,i)=h+0.5i+0.5i² choice: over
	// a power-of-two table, the first m triangular offsets hit every slot.
	for _, m := range []int{4, 16, 64, 256, 1024} {
		seen := make(map[uint64]bool, m)
		for i := 0; i < m; i++ {
			seen[triangular(i)%uint64(m)] = true
		}
		if len(seen) != m {
			t.Errorf("m=%d: triangular probing reached %d slots", m, len(seen))
		}
	}
}

func TestSnapshotCopies(t *testing.T) {
	tab := MustNew(Config{Entries: 64})
	tab.Accumulate(key(1), 5, 50, 1)
	snap := tab.Snapshot(0)
	if len(snap) != 1 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	snap[0].Pkts = 999
	e, _ := tab.Lookup(key(1), 1)
	if e.Pkts != 5 {
		t.Error("mutating a snapshot leaked into the table")
	}
}

func TestLoadFactorAndMemory(t *testing.T) {
	tab := MustNew(Config{Entries: 128})
	if tab.LoadFactor() != 0 {
		t.Error("fresh load factor must be 0")
	}
	for i := 0; i < 64; i++ {
		tab.Accumulate(key(i), 1, 1, 0)
	}
	if lf := tab.LoadFactor(); lf < 0.45 || lf > 0.5 {
		t.Errorf("load factor = %v, want ~0.5", lf)
	}
	if tab.MemoryBytes() != 128*EntryBytes {
		t.Errorf("MemoryBytes = %d, want %d", tab.MemoryBytes(), 128*EntryBytes)
	}
	if tab.Capacity() != 128 {
		t.Errorf("Capacity = %d, want 128", tab.Capacity())
	}
}

func TestReset(t *testing.T) {
	tab := MustNew(Config{Entries: 64})
	tab.Accumulate(key(1), 1, 1, 0)
	tab.Reset()
	if tab.Len() != 0 || tab.Stats() != (Stats{}) {
		t.Error("Reset must clear entries and stats")
	}
	if _, ok := tab.Lookup(key(1), 0); ok {
		t.Error("entry survived Reset")
	}
}

func TestAccumulatePropertyTotalsPreserved(t *testing.T) {
	// Property: with no eviction pressure, the sum over the table equals
	// the sum of accumulated values.
	f := func(updates []uint8) bool {
		tab := MustNew(Config{Entries: 1024, ProbeLimit: 64})
		var want float64
		for i, u := range updates {
			v := float64(u) + 1
			tab.Accumulate(key(i%50), v, v, int64(i))
			want += v
		}
		var got float64
		for _, e := range tab.Snapshot(0) {
			got += e.Pkts
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHighLoadBehavior(t *testing.T) {
	// Push 3× capacity through a small table: the table must stay at
	// most full, keep answering lookups, and prefer keeping big flows.
	tab := MustNew(Config{Entries: 256, ProbeLimit: 16})
	big := key(7)
	for i := 0; i < 3*256; i++ {
		tab.Accumulate(key(1000+i), 1, 1, int64(i))
		tab.Accumulate(big, 50, 50, int64(i)) // keep the elephant hot
	}
	if tab.Len() > 256 {
		t.Errorf("Len %d exceeds capacity", tab.Len())
	}
	if _, ok := tab.Lookup(big, 99999); !ok {
		t.Error("hot elephant flow was evicted under mice pressure")
	}
	st := tab.Stats()
	if st.Evictions == 0 && st.Drops == 0 {
		t.Error("expected eviction activity at 3× capacity")
	}
}

func TestLinearProbingWorks(t *testing.T) {
	tab := MustNew(Config{Entries: 1024, Probing: ProbeLinear, ProbeLimit: 32})
	const n = 500
	for i := 0; i < n; i++ {
		tab.Accumulate(key(i), float64(i+1), 1, int64(i))
	}
	missing := 0
	for i := 0; i < n; i++ {
		if _, ok := tab.Lookup(key(i), int64(n)); !ok {
			missing++
		}
	}
	if missing > n/50 {
		t.Errorf("%d of %d flows missing under linear probing at 49%% load", missing, n)
	}
}

func TestEvictFirstDiscardsRegardlessOfSize(t *testing.T) {
	tab := MustNew(Config{Entries: 4, ProbeLimit: 4, Eviction: EvictFirst})
	for i := 0; i < 4; i++ {
		tab.Accumulate(key(i), 1000, 1, int64(i)) // all elephants
	}
	outcome, victim := tab.Accumulate(key(50), 1, 1, 10)
	if outcome != Evicted || victim == nil {
		t.Fatalf("outcome = %v, want Evicted", outcome)
	}
	// EvictFirst takes the first probed slot even though it held an
	// elephant — the failure mode second-chance avoids.
	if victim.Pkts != 1000 {
		t.Errorf("victim Pkts = %v, want 1000", victim.Pkts)
	}
}

func TestQuadraticBeatsLinearClusteringAtHighLoad(t *testing.T) {
	// At ~87% load with sequential-ish hashes, quadratic probing should
	// place at least as many distinct flows as linear within the same
	// probe limit. (Statistical property; uses a generous margin.)
	run := func(p Probing) int {
		tab := MustNew(Config{Entries: 512, ProbeLimit: 8, Probing: p})
		for i := 0; i < 448; i++ {
			tab.Accumulate(key(i), 1, 1, int64(i))
		}
		found := 0
		for i := 0; i < 448; i++ {
			if _, ok := tab.Lookup(key(i), 448); ok {
				found++
			}
		}
		return found
	}
	q, l := run(ProbeQuadratic), run(ProbeLinear)
	if q < l-20 {
		t.Errorf("quadratic retained %d flows, linear %d — clustering inverted", q, l)
	}
}

// TestModelEquivalence is a model-based property test: with a roomy table
// (no eviction pressure), the WSAF must behave exactly like a reference
// map for any accumulate/lookup interleaving, its occupancy bitmap true to
// the slots after every step.
func TestModelEquivalence(t *testing.T) {
	type op struct {
		Flow  uint8
		Pkts  uint8
		Bytes uint8
		TS    uint8
	}
	f := func(ops []op) bool {
		tab := MustNew(Config{Entries: 4096, ProbeLimit: 64})
		model := map[packet.FlowKey][2]float64{}
		for _, o := range ops {
			k := key(int(o.Flow))
			pk, by := float64(o.Pkts)+1, float64(o.Bytes)+1
			tab.Accumulate(k, pk, by, int64(o.TS))
			checkOccupancy(t, tab)
			cur := model[k]
			model[k] = [2]float64{cur[0] + pk, cur[1] + by}
		}
		if tab.Len() != len(model) {
			return false
		}
		for k, want := range model {
			e, ok := tab.Lookup(k, 0)
			if !ok || e.Pkts != want[0] || e.Bytes != want[1] {
				return false
			}
		}
		// Snapshot must agree with the model too.
		for _, e := range tab.Snapshot(0) {
			want, ok := model[e.Key]
			if !ok || e.Pkts != want[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestExpiredSelfEntryRestarts is the regression test for the TTL
// resurrection bug: a packet arriving for a flow whose own entry expired
// must start a fresh record (Reclaimed), not resume the stale counters —
// Lookup and Snapshot already declared that entry dead.
func TestExpiredSelfEntryRestarts(t *testing.T) {
	tab := MustNew(Config{Entries: 64, TTL: 1000})
	k := key(11)
	tab.Accumulate(k, 40, 4000, 0)
	if _, ok := tab.Lookup(k, 5000); ok {
		t.Fatal("entry must be expired at now=5000")
	}

	outcome, _ := tab.Accumulate(k, 3, 300, 5000)
	if outcome != Reclaimed {
		t.Fatalf("accumulate into own expired entry: outcome = %v, want Reclaimed", outcome)
	}
	e, ok := tab.Lookup(k, 5000)
	if !ok {
		t.Fatal("restarted flow must be findable")
	}
	if e.Pkts != 3 || e.Bytes != 300 {
		t.Errorf("restarted entry carries stale counters: Pkts=%v Bytes=%v, want 3/300", e.Pkts, e.Bytes)
	}
	if e.FirstSeen != 5000 {
		t.Errorf("restarted FirstSeen = %d, want 5000", e.FirstSeen)
	}
	if s := tab.Stats(); s.Reclaims != 1 || s.Updates != 0 {
		t.Errorf("stats = %+v, want 1 reclaim and 0 updates", s)
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d, want 1 (restart must not double-count occupancy)", tab.Len())
	}
}

// TestExpiredEntriesNeverLeak drives a TTL table with two generations of
// flows and checks that no API — Lookup, LookupHashed, Snapshot —
// ever reports an entry whose last update is older than the TTL.
func TestExpiredEntriesNeverLeak(t *testing.T) {
	const ttl = 1000
	tab := MustNew(Config{Entries: 256, TTL: ttl})
	for i := 0; i < 100; i++ {
		tab.Accumulate(key(i), 10, 100, int64(i))
	}
	// Second generation, far past the first's TTL.
	now := int64(100_000)
	for i := 100; i < 130; i++ {
		tab.Accumulate(key(i), 20, 200, now)
	}

	for i := 0; i < 100; i++ {
		if _, ok := tab.Lookup(key(i), now); ok {
			t.Fatalf("Lookup leaked expired flow %d", i)
		}
		k := key(i)
		if _, ok := tab.LookupHashed(k.Hash64(0), k, now); ok {
			t.Fatalf("LookupHashed leaked expired flow %d", i)
		}
	}
	for _, e := range tab.Snapshot(now) {
		if now-e.LastUpdate > ttl {
			t.Fatalf("Snapshot leaked expired entry %+v at now=%d", e, now)
		}
	}
}

// TestEvictedEntrySurvivesLaterCalls enforces Accumulate's copy contract:
// the Evicted result must stay intact across arbitrarily many later calls,
// including further evictions that overwrite the victim scratch.
func TestEvictedEntrySurvivesLaterCalls(t *testing.T) {
	tab := MustNew(Config{Entries: 4, ProbeLimit: 4})
	for i := 0; i < 4; i++ {
		tab.Accumulate(key(i), float64(1000+i), 10, 1)
	}
	var first *Entry
	var firstSaved Entry
	for i := 4; first == nil; i++ {
		if o, v := tab.Accumulate(key(i), 1, 1, 2); o == Evicted {
			first, firstSaved = v, *v
		}
	}
	// Force more evictions; each overwrites the victim scratch.
	evictions := 0
	for i := 1000; evictions < 3; i++ {
		if o, _ := tab.Accumulate(key(i), 1, 1, int64(3+i)); o == Evicted {
			evictions++
		}
	}
	if *first != firstSaved {
		t.Errorf("held Evicted result changed after later evictions:\n got %+v\nwant %+v", *first, firstSaved)
	}
}

// TestVictimAccessor checks that Victim surfaces the displaced entry for
// AccumulateHashed callers, as a copy.
func TestVictimAccessor(t *testing.T) {
	tab := MustNew(Config{Entries: 4, ProbeLimit: 4})
	for i := 0; i < 4; i++ {
		tab.Accumulate(key(i), float64(500+i), 10, 1)
	}
	for i := 4; ; i++ {
		k := key(i)
		o, _ := tab.AccumulateHashed(k.Hash64(tab.seed), k, 1, 1, 2)
		if o != Evicted {
			continue
		}
		v := tab.Victim()
		if v.Pkts < 500 {
			t.Fatalf("Victim() = %+v, want one of the original heavy entries", v)
		}
		saved := v
		tab.Accumulate(key(i+12345), 7, 7, 3)
		if v != saved {
			t.Error("Victim() copy aliases table state")
		}
		break
	}
}

// TestStatsConservation checks the table's conservation laws under random
// load: every Accumulate lands in exactly one outcome bucket, and live
// occupancy equals fresh-slot inserts (reclaims and evictions pair one
// death with one birth).
func TestStatsConservation(t *testing.T) {
	tab := MustNew(Config{Entries: 64, ProbeLimit: 8, TTL: 5000})
	var calls uint64
	for i := 0; i < 20_000; i++ {
		tab.Accumulate(key(i%500), 1, 64, int64(i)*17)
		calls++
	}
	s := tab.Stats()
	if got := s.Updates + s.Inserts + s.Reclaims + s.Evictions + s.Drops; got != calls {
		t.Errorf("outcome sum %d != %d calls", got, calls)
	}
	if uint64(tab.Len()) != s.Inserts {
		t.Errorf("occupancy %d != inserts %d (reclaim/evict must be occupancy-neutral)", tab.Len(), s.Inserts)
	}
}
