package flowtable

import (
	"math/rand"
	"testing"

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

// TestTableMatchesMap drives a table and a Go map with the same random
// upserts and lookups. Hashes come from a deliberately poor function —
// eight distinct values, so nearly every key shares its full 64-bit hash
// (tag and home slot both) with hundreds of others — and from the real
// one, and the table grows through many doublings either way.
func TestTableMatchesMap(t *testing.T) {
	for name, hash := range map[string]func(*packet.FlowKey) uint64{
		"colliding": func(k *packet.FlowKey) uint64 { return uint64(k.SrcPort%8) * 0x9E3779B97F4A7C15 },
		"seeded":    Hash,
	} {
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

// TestPresizedTableDoesNotGrow: New(n) holds n flows in the slot array it
// was built with.
func TestPresizedTableDoesNotGrow(t *testing.T) {
	const n = 1000
	tab := New[int](n)
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
		tab := New[struct{}](flows)
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
