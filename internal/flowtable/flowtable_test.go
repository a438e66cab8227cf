package flowtable

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"instameasure/internal/packet"
	"instameasure/internal/trace"
)

func key(i int) packet.FlowKey {
	if i%5 == 4 { // a share of v6 keys
		k := packet.FlowKey{SrcPort: uint16(i), DstPort: 53, Proto: packet.ProtoUDP, IsV6: true}
		k.SrcIP[0], k.SrcIP[14], k.SrcIP[15] = 0x20, byte(i>>8), byte(i)
		k.DstIP[0], k.DstIP[15] = 0x20, 1
		return k
	}
	return packet.V4Key(0x0A000000+uint32(i), 0x08080808, uint16(i), 443, packet.ProtoTCP)
}

// hashes are the tests' two hash functions: a colliding one and the
// process-seeded one (TestTableMatchesMap describes both).
var hashes = map[string]func(*packet.FlowKey) uint64{
	"colliding": func(k *packet.FlowKey) uint64 { return uint64(k.SrcPort%8) * 0x9E3779B97F4A7C15 },
	"seeded":    Hash,
}

// newTable is a table Reset to room for n flows.
func newTable[V any](n int) *Table[V] {
	t := new(Table[V])
	t.Reset(n)
	return t
}

// TestTableMatchesMap drives a table and a Go map with the same random
// upserts and lookups. Hashes come from a deliberately poor function —
// eight distinct values, so nearly every key shares its full 64-bit hash
// (tag and home slot both) with hundreds of others — and from the real
// one, and the table grows through many doublings either way.
func TestTableMatchesMap(t *testing.T) {
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			var tab Table[int]
			ref := map[packet.FlowKey]int{}
			var order []packet.FlowKey
			grew := 0
			for op := 0; op < 40_000; op++ {
				k := key(rng.Intn(3000))
				h := hash(&k)
				if rng.Intn(3) == 0 {
					got := tab.Get(h, &k)
					want, ok := ref[k]
					if (got != nil) != ok || (ok && *got != want) {
						t.Fatalf("op %d: Get(%v) = %v, map has %d, %v", op, k, got, want, ok)
					}
					continue
				}
				slots := len(tab.slots)
				v, fresh := tab.Upsert(h, &k)
				if len(tab.slots) != slots {
					grew++
				}
				if _, ok := ref[k]; fresh == ok {
					t.Fatalf("op %d: Upsert(%v) fresh = %v, map had it: %v", op, k, fresh, ok)
				}
				if fresh {
					order = append(order, k)
				}
				if *v != ref[k] {
					t.Fatalf("op %d: Upsert(%v) holds %d, map %d", op, k, *v, ref[k])
				}
				*v += op
				ref[k] += op
			}
			if grew < 4 {
				t.Fatalf("table grew %d times, want at least 4 doublings exercised", grew)
			}
			if tab.Len() != len(ref) {
				t.Fatalf("Len = %d, map holds %d", tab.Len(), len(ref))
			}
			i := 0
			tab.Each(func(h uint64, k *packet.FlowKey, v *int) {
				if *k != order[i] || h != hash(k) || *v != ref[*k] {
					t.Fatalf("Each visit %d: %v h=%x v=%d, want %v h=%x v=%d", i, *k, h, *v, order[i], hash(k), ref[*k])
				}
				i++
			})
			if i != len(order) {
				t.Fatalf("Each visited %d flows, want %d", i, len(order))
			}
		})
	}
}

// TestPresizedTableDoesNotGrow: a table Reset(n) holds n flows in the slot
// array Reset gave it.
func TestPresizedTableDoesNotGrow(t *testing.T) {
	const n = 1000
	tab := newTable[int](n)
	slots := len(tab.slots)
	for i := 0; i < n; i++ {
		k := key(i)
		tab.Upsert(Hash(&k), &k)
	}
	if len(tab.slots) != slots || tab.Len() != n {
		t.Fatalf("presized table went from %d to %d slots holding %d flows", slots, len(tab.slots), tab.Len())
	}
}

// TestNoAllocsOnPresentKey: looking a flow up, and upserting one that is
// already there, allocate nothing.
func TestNoAllocsOnPresentKey(t *testing.T) {
	var tab Table[float64]
	keys := make([]packet.FlowKey, 512)
	for i := range keys {
		keys[i] = key(i)
		tab.Upsert(Hash(&keys[i]), &keys[i])
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		k := &keys[i%len(keys)]
		i++
		if tab.Get(Hash(k), k) == nil {
			t.Fatal("present key not found")
		}
	}); n != 0 {
		t.Errorf("Get allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		k := &keys[i%len(keys)]
		i++
		v, fresh := tab.Upsert(Hash(k), k)
		if fresh {
			t.Fatal("present key inserted again")
		}
		*v++
	}); n != 0 {
		t.Errorf("Upsert of a present key allocates %v times per call", n)
	}
}

// probes counts the slots a lookup of hash h reads before it reaches the
// entry holding that hash.
func probes[V any](tab *Table[V], h uint64) int {
	mask := uint64(len(tab.slots) - 1)
	n := 1
	for i, step := h&mask, uint64(1); ; i, step = (i+step)&mask, step+1 {
		if s := tab.slots[i]; s != 0 && tab.entries[uint32(s)-1].hash == h {
			return n
		}
		n++
	}
}

// TestCollisionFloodProbeBound is the seed-randomisation regression test
// at this table's level. The table keeps every flow, so a flood does not
// evict anything; what it buys the attacker is probe length. Keys mined
// to share one home slot under a seed the attacker knows form one chain —
// the last of n keys costs n probes — while under a seed they do not know
// the same keys cost what random keys cost.
func TestCollisionFloodProbeBound(t *testing.T) {
	const (
		flows     = 256
		knownSeed = 1
		slots     = 2 * flows // the table's size while it holds the flood
	)
	tr, err := trace.GenerateCollisionFlood(trace.CollisionFloodConfig{
		Flows: flows, PacketsPerFlow: 1, KnownSeed: knownSeed, TableEntries: slots,
	})
	if err != nil {
		t.Fatal(err)
	}
	worst := func(seed uint64) int {
		tab := newTable[struct{}](flows)
		if len(tab.slots) != slots {
			t.Fatalf("table for %d flows has %d slots, flood was mined for %d", flows, len(tab.slots), slots)
		}
		for i := range tr.Packets {
			k := &tr.Packets[i].Key
			tab.Upsert(k.Hash64(seed), k)
		}
		longest := 0
		tab.Each(func(h uint64, _ *packet.FlowKey, _ *struct{}) {
			longest = max(longest, probes(tab, h))
		})
		return longest
	}
	if got := worst(knownSeed); got < flows {
		t.Errorf("known seed: longest probe %d, expected the flood to chain all %d keys", got, flows)
	}
	if got := worst(0x5EC4E7BEEF); got > 24 {
		t.Errorf("secret seed: longest probe %d at load 1/2, want <= 24", got)
	}
	if seed == knownSeed || seed == 0 {
		t.Errorf("process seed is the predictable %d", seed)
	}
}

// upsertBurst is the bulk callers' two-pass idiom: hash up to Burst keys
// and hint each, then upsert them in order, adding i+1 to key i's value.
// It reports each upsert's fresh flag and how many slot-array growths
// happened between a burst's hints and its last upsert.
func upsertBurst(tab *Table[int], keys []packet.FlowKey, hash func(*packet.FlowKey) uint64) (fresh []bool, midBurst int) {
	var hs [Burst]uint64
	for lo := 0; lo < len(keys); lo += Burst {
		burst := keys[lo:min(lo+Burst, len(keys))]
		for i := range burst {
			hs[i] = hash(&burst[i])
			tab.Prefetch(hs[i])
		}
		slots := len(tab.slots)
		for i := range burst {
			v, f := tab.Upsert(hs[i], &burst[i])
			*v += lo + i + 1
			fresh = append(fresh, f)
		}
		if len(tab.slots) != slots {
			midBurst++
		}
	}
	return fresh, midBurst
}

// upsertScalar is upsertBurst one call at a time.
func upsertScalar(tab *Table[int], keys []packet.FlowKey, hash func(*packet.FlowKey) uint64) (fresh []bool) {
	for i := range keys {
		v, f := tab.Upsert(hash(&keys[i]), &keys[i])
		*v += i + 1
		fresh = append(fresh, f)
	}
	return fresh
}

// sameTable fails unless a and b hold the same slot words and the same
// entries in the same order, and answer Get alike for every key in probe
// (present or not).
func sameTable(t *testing.T, a, b *Table[int], probe []packet.FlowKey, hash func(*packet.FlowKey) uint64) {
	t.Helper()
	if !slices.Equal(a.slots, b.slots) {
		t.Fatalf("slot arrays differ (%d and %d slots)", len(a.slots), len(b.slots))
	}
	if !slices.Equal(a.entries, b.entries) {
		t.Fatalf("entries differ (%d and %d flows)", a.Len(), b.Len())
	}
	for i := range probe {
		h := hash(&probe[i])
		va, vb := a.Get(h, &probe[i]), b.Get(h, &probe[i])
		if (va == nil) != (vb == nil) || (va != nil && *va != *vb) {
			t.Fatalf("Get(%v) = %v and %v", probe[i], va, vb)
		}
	}
}

// TestBurstMatchesScalar: resolving keys a burst at a time behind Prefetch
// hints builds the table one-at-a-time upserts build — slot for slot,
// entry for entry, fresh flag for fresh flag — under a colliding and the
// seeded hash, repeats inside a burst included, from a table small enough
// to grow in the middle of bursts.
func TestBurstMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]packet.FlowKey, 6000)
	for i := range keys {
		keys[i] = key(rng.Intn(2500))
	}
	probe := make([]packet.FlowKey, 3000) // keys 2500.. are never inserted
	for i := range probe {
		probe[i] = key(i)
	}
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			burst, scalar := newTable[int](20), newTable[int](20)
			fb, midBurst := upsertBurst(burst, keys, hash)
			if fs := upsertScalar(scalar, keys, hash); !slices.Equal(fb, fs) {
				t.Fatal("fresh flags differ between burst and scalar upserts")
			}
			if midBurst == 0 {
				t.Fatal("the table never grew inside a burst")
			}
			sameTable(t, burst, scalar, probe, hash)
		})
	}
}

// TestResetReusesArrays: a table Reset to a smaller or a larger n, then
// filled a burst at a time, is a table freshly Reset(n) and filled one key at a time,
// and a Reset that fits keeps the arrays it had.
func TestResetReusesArrays(t *testing.T) {
	keys := make([]packet.FlowKey, 3000)
	for i := range keys {
		keys[i] = key(i)
	}
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			tab := newTable[int](0)
			upsertBurst(tab, keys[:1000], hash)
			for _, n := range []int{100, 2500} {
				slots, entries := unsafe.SliceData(tab.slots), unsafe.SliceData(tab.entries)
				tab.Reset(n)
				if tab.Len() != 0 || tab.Get(hash(&keys[0]), &keys[0]) != nil {
					t.Fatalf("Reset(%d) left %d flows", n, tab.Len())
				}
				// 100 flows fit the arrays the previous fill left; 2500 do not.
				kept := unsafe.SliceData(tab.slots) == slots && unsafe.SliceData(tab.entries) == entries
				if kept != (n == 100) {
					t.Fatalf("Reset(%d): arrays kept = %v", n, kept)
				}
				upsertBurst(tab, keys[:n], hash)
				ref := newTable[int](n)
				upsertScalar(ref, keys[:n], hash)
				sameTable(t, tab, ref, keys, hash)
			}
		})
	}
}

// TestJoinMatchesGet: Join hands every flow of a the value Get finds for
// it in b.
func TestJoinMatchesGet(t *testing.T) {
	a, b := newTable[int](0), newTable[int](0)
	for i := 0; i < 2000; i++ {
		k := key(i)
		v, _ := a.Upsert(Hash(&k), &k)
		*v = i
		if i%3 != 0 {
			k := key(i + 1000) // b holds keys 1000.. and misses every third
			v, _ := b.Upsert(Hash(&k), &k)
			*v = -i
		}
	}
	n := 0
	Join(a, b, func(k *packet.FlowKey, va, vb *int) {
		if want := b.Get(Hash(k), k); vb != want || *va != n || *k != key(n) {
			t.Fatalf("Join visit %d: %v va=%d vb=%p, want va=%d vb=%p", n, *k, *va, vb, n, want)
		}
		n++
	})
	if n != a.Len() {
		t.Fatalf("Join visited %d flows, want %d", n, a.Len())
	}
}

// TestNoAllocsOnPresentBurst: a burst over keys already present hints and
// upserts without allocating.
func TestNoAllocsOnPresentBurst(t *testing.T) {
	keys := make([]packet.FlowKey, 4*Burst)
	for i := range keys {
		keys[i] = key(i)
	}
	var tab Table[int]
	upsertScalar(&tab, keys, Hash)
	var hs [Burst]uint64
	lo := 0
	if n := testing.AllocsPerRun(1000, func() {
		burst := keys[lo : lo+Burst]
		lo = (lo + Burst) % len(keys)
		for i := range burst {
			hs[i] = Hash(&burst[i])
			tab.Prefetch(hs[i])
		}
		for i := range burst {
			if v, fresh := tab.Upsert(hs[i], &burst[i]); fresh {
				t.Fatal("present key inserted again")
			} else {
				*v++
			}
		}
	}); n != 0 {
		t.Errorf("a burst over present keys allocates %v times", n)
	}
}
