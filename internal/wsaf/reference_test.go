package wsaf

import (
	"slices"
	"testing"

	"instameasure/internal/packet"
)

// refTable is the slot-indexed layout the dense one replaced, kept as the
// reference FuzzTableMatchesReference holds Table to: one entry per slot,
// probed in place, walked by a full scan in slot order. Its probing, probe
// limit, TTL and eviction policies are the ones Table keeps.
type refTable struct {
	entries    []refEntry
	mask       uint64
	probeLimit int
	ttl        int64
	probing    Probing
	eviction   Eviction
	seed       uint64

	size   int
	stats  Stats
	victim Entry
}

type refEntry struct {
	Entry
	used bool
}

func newRef(cfg Config) *refTable {
	t := MustNew(cfg) // resolves the defaults
	return &refTable{entries: make([]refEntry, cfg.Entries), mask: t.mask, probeLimit: t.probeLimit,
		ttl: t.ttl, probing: t.probing, eviction: t.eviction, seed: t.seed}
}

func (t *refTable) slot(h uint64, i int) int {
	if t.probing == ProbeLinear {
		return int((h + uint64(i)) & t.mask)
	}
	return int((h + triangular(i)) & t.mask)
}

func (t *refTable) expired(e *refEntry, now int64) bool {
	return t.ttl > 0 && now-e.LastUpdate > t.ttl
}

// Accumulate is the parent's AccumulateHashed: it returns the live entry.
func (t *refTable) Accumulate(key packet.FlowKey, pkts, bytes float64, now int64) (Outcome, *Entry) {
	h := key.Hash64(t.seed)
	id := uint32(h ^ (h >> 32))
	freeSlot := -1
	var probed []int
	for i := 0; i < t.probeLimit; i++ {
		slot := t.slot(h, i)
		t.stats.ProbeSteps++
		e := &t.entries[slot]
		switch {
		case !e.used:
			if freeSlot < 0 {
				freeSlot = slot
			}
			i = t.probeLimit
		case e.FlowID == id && e.Key == key:
			if t.expired(e, now) {
				t.stats.Reclaims++
				t.size--
				t.place(slot, id, key, pkts, bytes, now)
				return Reclaimed, &e.Entry
			}
			e.Pkts += pkts
			e.Bytes += bytes
			e.LastUpdate = now
			e.chance = true
			t.stats.Updates++
			return Updated, &e.Entry
		case t.expired(e, now):
			if freeSlot < 0 {
				freeSlot = slot
			}
			probed = append(probed, slot)
		default:
			probed = append(probed, slot)
		}
	}
	if freeSlot >= 0 {
		outcome := Inserted
		if t.entries[freeSlot].used {
			outcome = Reclaimed
			t.stats.Reclaims++
			t.size--
		} else {
			t.stats.Inserts++
		}
		t.place(freeSlot, id, key, pkts, bytes, now)
		return outcome, &t.entries[freeSlot].Entry
	}
	victimSlot := -1
	switch t.eviction {
	case EvictFirst:
		victimSlot = probed[0]
	default:
		for _, slot := range probed {
			e := &t.entries[slot]
			if e.chance {
				e.chance = false
				continue
			}
			victimSlot = slot
			break
		}
		if victimSlot < 0 {
			minPkts := -1.0
			for _, slot := range probed {
				if e := &t.entries[slot]; minPkts < 0 || e.Pkts < minPkts {
					minPkts = e.Pkts
					victimSlot = slot
				}
			}
		}
	}
	t.victim = t.entries[victimSlot].Entry
	t.size--
	t.place(victimSlot, id, key, pkts, bytes, now)
	t.stats.Evictions++
	return Evicted, &t.entries[victimSlot].Entry
}

func (t *refTable) Lookup(key packet.FlowKey, now int64) (Entry, bool) {
	h := key.Hash64(t.seed)
	id := uint32(h ^ (h >> 32))
	for i := 0; i < t.probeLimit; i++ {
		e := &t.entries[t.slot(h, i)]
		if !e.used {
			break
		}
		if e.FlowID == id && e.Key == key {
			if t.expired(e, now) {
				break
			}
			return e.Entry, true
		}
	}
	return Entry{}, false
}

func (t *refTable) Snapshot(now int64) []Entry {
	var out []Entry
	for i := range t.entries {
		if e := &t.entries[i]; e.used && (now <= 0 || !t.expired(e, now)) {
			out = append(out, e.Entry)
		}
	}
	return out
}

func (t *refTable) Reset() {
	clear(t.entries)
	t.size = 0
	t.stats = Stats{}
}

func (t *refTable) place(slot int, id uint32, key packet.FlowKey, pkts, bytes float64, now int64) {
	t.entries[slot] = refEntry{Entry: Entry{FlowID: id, Key: key, Pkts: pkts, Bytes: bytes,
		FirstSeen: now, LastUpdate: now, chance: true}, used: true}
	t.size++
}

// FuzzTableMatchesReference drives Table and refTable with one stream of
// Accumulate, Lookup and Reset and requires, after every operation, the
// same outcome and returned totals, the same victim, lookup, Len and
// Stats, and the same live set sorted by key: the dense layout changes
// the order a walk lists flows in and nothing else. cfg picks 16–1 024
// entries, a probe limit of 1–16, the TTL on or off and both policies;
// ops is read in triples (control byte, two key bytes) over a keyspace
// twice the table, with time advancing 0–15 per operation and jumping past
// the TTL now and then. Operations past maxOps are ignored, so a long
// input costs no more than a short one.
func FuzzTableMatchesReference(f *testing.F) {
	const maxOps = 512
	f.Add(uint16(0), []byte{0, 0, 1, 16, 0, 2, 32, 0, 1, 3, 0, 1, 15, 0, 0})
	f.Add(uint16(0x0300|1<<3|0), []byte{4, 0, 1, 4, 0, 17, 4, 0, 33, 4, 0, 49, 4, 0, 65, 243, 0, 17, 4, 0, 1})
	f.Add(uint16(0x0000|3<<3|2), []byte{16, 1, 2, 32, 3, 4, 48, 5, 6, 64, 7, 8, 240, 1, 2, 80, 9, 10, 96, 3, 4})
	f.Fuzz(func(t *testing.T, cfg uint16, ops []byte) {
		c := Config{Entries: 16 << (cfg % 7), ProbeLimit: 1 + int(cfg>>3)%16,
			Probing: ProbeQuadratic + Probing(cfg>>8&1), Eviction: EvictSecondChance + Eviction(cfg>>9&1),
			Seed: uint64(cfg >> 11)}
		if cfg>>10&1 != 0 {
			c.TTL = 60
		}
		tab, ref := MustNew(c), newRef(c)
		now := int64(1)
		for i := 0; i+2 < min(len(ops), 3*maxOps); i += 3 {
			op := ops[i]
			k := key((int(ops[i+1])<<8 | int(ops[i+2])) % (2 * c.Entries))
			if now += int64(op >> 4); op>>4 == 15 {
				now += 1000
			}
			switch {
			case op&15 == 15:
				tab.Reset()
				ref.Reset()
			case op&3 == 3:
			default:
				pkts := float64(1 + op>>2&3)
				o, e := tab.AccumulateHashed(k.Hash64(tab.seed), k, pkts, 64*pkts, now)
				ro, re := ref.Accumulate(k, pkts, 64*pkts, now)
				if o != ro || strip(*e) != *re {
					t.Fatalf("op %d: Accumulate = %v %+v, reference %v %+v", i/3, o, e, ro, re)
				}
			}
			if v, rv := strip(tab.Victim()), ref.victim; v != rv {
				t.Fatalf("op %d: Victim = %+v, reference %+v", i/3, v, rv)
			}
			e, ok := tab.Lookup(k, now)
			if re, rok := ref.Lookup(k, now); ok != rok || strip(e) != re {
				t.Fatalf("op %d: Lookup = %+v %v, reference %+v %v", i/3, e, ok, re, rok)
			}
			if tab.Len() != ref.size || tab.Stats() != ref.stats {
				t.Fatalf("op %d: Len %d, Stats %+v; reference %d, %+v", i/3, tab.Len(), tab.Stats(), ref.size, ref.stats)
			}
			checkOccupancy(t, tab)
			for _, at := range []int64{0, now} {
				got, want := tab.Snapshot(at), ref.Snapshot(at)
				for j := range got {
					got[j] = strip(got[j])
				}
				if !slices.Equal(byKey(got), byKey(want)) {
					t.Fatalf("op %d: live set at %d differs from the reference (%d vs %d entries)", i/3, at, len(got), len(want))
				}
			}
		}
	})
}

// strip clears what only the dense layout records, so an entry compares
// with the reference's.
func strip(e Entry) Entry {
	e.slot = 0
	return e
}
