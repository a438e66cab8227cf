// Package wsaf implements the In-DRAM Working Set of Active Flows: an
// open-addressing hash table holding one entry per active flow (32-bit flow
// ID, packet counter, byte counter, timestamps, and the full 5-tuple —
// the paper's 33-byte entry).
//
// Collision handling follows Section III.B: quadratic probing with
// h(k,i) = hash(k) + (i+i²)/2 mod m over a power-of-two table (triangular
// offsets visit every slot), a fixed probe limit, and a probe-limit-based
// second-chance (clock) replacement policy that evicts expired or least
// significant mice entries inline — garbage collection happens during
// probing rather than on a separate core.
package wsaf

import (
	"errors"
	"fmt"
	"math/bits"

	"instameasure/internal/packet"
	"instameasure/internal/telemetry"
)

// Probing selects the probe sequence.
type Probing int

// Probing policies.
const (
	// ProbeQuadratic is the paper's h(k,i) = hash(k) + (i+i²)/2 mod m;
	// over a power-of-two table the triangular offsets visit every slot.
	ProbeQuadratic Probing = iota + 1
	// ProbeLinear is h(k,i) = hash(k) + i mod m — the ablation baseline;
	// it suffers primary clustering at high load.
	ProbeLinear
)

// Eviction selects the replacement policy when every probed slot is live.
type Eviction int

// Eviction policies.
const (
	// EvictSecondChance is the paper's clock policy: recently updated
	// entries survive one pass; among unreferenced entries the first is
	// evicted, falling back to the smallest flow.
	EvictSecondChance Eviction = iota + 1
	// EvictFirst always evicts the first probed slot — the naive
	// FIFO-flavored ablation baseline that happily discards elephants.
	EvictFirst
)

// Config parameterizes a Table.
type Config struct {
	// Entries is the table capacity; must be a power of two (the paper
	// fixes 2^20 for all experiments).
	Entries int
	// ProbeLimit bounds the probe sequence per operation. 0 means 16.
	ProbeLimit int
	// TTL is the inactivity window, in trace nanoseconds, after which an
	// entry is garbage-collectable during probing. 0 disables TTL GC.
	TTL int64
	// Probing selects the probe sequence; 0 means ProbeQuadratic.
	Probing Probing
	// Eviction selects the replacement policy; 0 means EvictSecondChance.
	Eviction Eviction
	// Seed feeds flow-key hashing.
	Seed uint64
}

// Validation errors.
var (
	ErrEntriesPow2 = errors.New("wsaf: Entries must be a positive power of two")
)

// EntryBytes is the paper's accounting size of one WSAF entry: 32-bit flow
// ID + 32-bit packet counter + 32-bit byte counter + 64-bit timestamp +
// 104-bit 5-tuple = 33 bytes.
const EntryBytes = 33

// Outcome classifies what Accumulate did.
type Outcome int

// Accumulate outcomes.
const (
	// Updated: the flow already had an entry; counters were increased.
	Updated Outcome = iota + 1
	// Inserted: a new entry was placed in an empty slot.
	Inserted
	// Reclaimed: a new entry replaced an expired one (inline GC).
	Reclaimed
	// Evicted: a new entry replaced a live entry chosen by the
	// second-chance policy.
	Evicted
	// Dropped: every probed slot held a live, recently-referenced entry
	// and even eviction could not place the flow (only possible when the
	// clock pass is disabled); the update was lost.
	Dropped
)

// Entry is one WSAF record. Pkts and Bytes are float64 because
// FlowRegulator emits fractional estimates.
type Entry struct {
	FlowID     uint32
	Key        packet.FlowKey
	Pkts       float64
	Bytes      float64
	FirstSeen  int64
	LastUpdate int64

	used   bool
	chance bool
}

// Stats aggregates table activity counters.
type Stats struct {
	Updates    uint64
	Inserts    uint64
	Reclaims   uint64
	Evictions  uint64
	Drops      uint64
	ProbeSteps uint64
}

// Telemetry carries the table's metric handles. Accumulate runs only on
// FlowRegulator passthroughs (~1% of packets), so updating these on every
// call is cheap. All handles must be set when the struct is non-nil.
type Telemetry struct {
	// Outcomes[o-1] counts Accumulate results by Outcome (Updated..Dropped).
	Outcomes [5]telemetry.CounterShard
	// ProbeLength observes the number of slots probed per Accumulate —
	// the paper's quadratic-vs-linear probing quantity.
	ProbeLength telemetry.HistogramShard
	// Occupancy publishes the live entry count (single-writer Set).
	Occupancy telemetry.GaugeShard
}

// Table is a WSAF instance. It is not safe for concurrent use; the pipeline
// shards one Table per worker.
type Table struct {
	entries []Entry
	// occ is the occupancy bitmap: bit i is set exactly when entries[i].used.
	// used only ever goes false→true in place and back in Reset — eviction
	// and TTL reclaim overwrite a used slot in place — so those two are the
	// only writers. Each walks it, so a snapshot, a top-k or a Reset costs
	// what is live, not what is allocated.
	occ        []uint64
	mask       uint64
	probeLimit int
	ttl        int64
	probing    Probing
	eviction   Eviction
	seed       uint64
	tm         *Telemetry

	size     int
	stats    Stats
	probeBuf []int // reused across Accumulate calls to avoid per-packet allocation
	victim   Entry // scratch for the displaced entry of the last eviction
}

// New builds a Table from cfg.
func New(cfg Config) (*Table, error) {
	if cfg.Entries <= 0 || bits.OnesCount(uint(cfg.Entries)) != 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrEntriesPow2, cfg.Entries)
	}
	probeLimit := cfg.ProbeLimit
	if probeLimit <= 0 {
		probeLimit = 16
	}
	if probeLimit > cfg.Entries {
		probeLimit = cfg.Entries
	}
	probing := cfg.Probing
	if probing == 0 {
		probing = ProbeQuadratic
	}
	eviction := cfg.Eviction
	if eviction == 0 {
		eviction = EvictSecondChance
	}
	return &Table{
		entries:    make([]Entry, cfg.Entries),
		occ:        make([]uint64, (cfg.Entries+63)/64),
		mask:       uint64(cfg.Entries - 1),
		probeLimit: probeLimit,
		ttl:        cfg.TTL,
		probing:    probing,
		eviction:   eviction,
		seed:       cfg.Seed,
		probeBuf:   make([]int, 0, probeLimit),
	}, nil
}

// MustNew is New for statically-known-good configs; it panics on error.
func MustNew(cfg Config) *Table {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Accumulate adds (pkts, bytes) to key's entry, inserting it if absent.
// now is the trace timestamp driving TTL garbage collection and the
// second-chance policy. It returns the outcome and, for Evicted, the entry
// that was displaced. The returned Entry is the caller's own copy — it is
// never aliased to table storage or to the victim scratch, so it remains
// valid across any number of later table operations
// (TestEvictedEntrySurvivesLaterCalls enforces this).
func (t *Table) Accumulate(key packet.FlowKey, pkts, bytes float64, now int64) (Outcome, *Entry) {
	o, _ := t.AccumulateHashed(key.Hash64(t.seed), key, pkts, bytes, now)
	if o != Evicted {
		return o, nil
	}
	v := t.victim
	return o, &v
}

// AccumulateHashed is Accumulate with the key's precomputed Hash64 — the
// zero-rehash hot path: the engine hashes each packet once and threads the
// value through the FlowRegulator and into the table. It returns the live
// entry for key after the update (nil only for Dropped); the pointer is
// into the table and MUST NOT be held across the next mutating call — any
// later Accumulate may relocate, evict, or overwrite the slot. Copy the
// fields out before touching the table again. For Evicted, the displaced
// entry is retained in the table's victim scratch until the next eviction;
// read it through Victim (a copy) or use Accumulate, which surfaces it.
//
//im:hotpath
func (t *Table) AccumulateHashed(h uint64, key packet.FlowKey, pkts, bytes float64, now int64) (Outcome, *Entry) {
	id := uint32(h ^ (h >> 32))

	freeSlot := -1
	probed := t.probeBuf[:0]
	steps := 0

	for i := 0; i < t.probeLimit; i++ {
		slot := t.slot(h, i)
		steps++
		e := &t.entries[slot]
		switch {
		case !e.used:
			if freeSlot < 0 {
				freeSlot = slot
			}
			// An empty slot ends the probe chain: the key cannot be
			// stored past the first hole it would have filled.
			i = t.probeLimit
		case e.FlowID == id && e.Key == key:
			if t.expired(e, now) {
				// The flow's own entry sat idle past the TTL. Lookup and
				// Snapshot already treat it as dead, so resuming the stale
				// counters here would resurrect a flow the rest of the API
				// says expired: start a fresh record instead (inline GC of
				// our own slot).
				t.stats.Reclaims++
				t.size--
				t.place(slot, id, key, pkts, bytes, now)
				return t.note(Reclaimed, steps), e
			}
			e.Pkts += pkts
			e.Bytes += bytes
			e.LastUpdate = now
			e.chance = true
			t.stats.Updates++
			return t.note(Updated, steps), e
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
		slot := &t.entries[freeSlot]
		outcome := Inserted
		if slot.used {
			outcome = Reclaimed
			t.stats.Reclaims++
			t.size--
		} else {
			t.stats.Inserts++
		}
		t.place(freeSlot, id, key, pkts, bytes, now)
		return t.note(outcome, steps), slot
	}

	victimSlot := -1
	switch t.eviction {
	case EvictFirst:
		if len(probed) > 0 {
			victimSlot = probed[0]
		}
	default:
		// Second-chance clock pass over the probed window: entries
		// holding a chance bit get it cleared and survive; the first
		// entry without one is the eviction candidate. If every entry
		// had its chance (all now cleared), evict the smallest flow —
		// mice first, per the paper.
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
	if victimSlot < 0 {
		t.stats.Drops++
		return t.note(Dropped, steps), nil
	}

	t.victim = t.entries[victimSlot]
	t.size--
	slot := &t.entries[victimSlot]
	t.place(victimSlot, id, key, pkts, bytes, now)
	t.stats.Evictions++
	return t.note(Evicted, steps), slot
}

// note folds one Accumulate's probe work and outcome into the stats and,
// when attached, the telemetry registry; it returns o for tail-calling.
func (t *Table) note(o Outcome, steps int) Outcome {
	t.stats.ProbeSteps += uint64(steps)
	if t.tm != nil {
		t.tm.Outcomes[o-1].Inc()
		t.tm.ProbeLength.Observe(uint64(steps))
		t.tm.Occupancy.Set(int64(t.size))
	}
	return o
}

// Victim returns a copy of the entry displaced by the most recent Evicted
// outcome. It is only meaningful immediately after AccumulateHashed
// reported Evicted: the scratch is overwritten by the next eviction.
// Accumulate callers get the same copy returned directly.
func (t *Table) Victim() Entry { return t.victim }

// SetTelemetry attaches metric handles updated on every Accumulate.
// Pass nil to detach.
func (t *Table) SetTelemetry(tm *Telemetry) {
	t.tm = tm
	if tm != nil {
		tm.Occupancy.Set(int64(t.size))
	}
}

// Lookup returns the entry for key, if present and not expired at now.
func (t *Table) Lookup(key packet.FlowKey, now int64) (Entry, bool) {
	return t.LookupHashed(key.Hash64(t.seed), key, now)
}

// LookupHashed is Lookup with the key's precomputed Hash64, for callers
// that already paid for the hash (the engine computes it once per packet).
//
//im:hotpath
func (t *Table) LookupHashed(h uint64, key packet.FlowKey, now int64) (Entry, bool) {
	if slot := t.SlotHashed(h, key, now); slot >= 0 {
		return t.entries[slot], true
	}
	return Entry{}, false
}

// SlotHashed returns the slot holding key's entry, or -1 if the key is
// absent or its entry expired at now: the probe LookupHashed reads
// through, and the reference SlotOf is tested against.
//
//im:hotpath
func (t *Table) SlotHashed(h uint64, key packet.FlowKey, now int64) int {
	id := uint32(h ^ (h >> 32))
	for i := 0; i < t.probeLimit; i++ {
		slot := t.slot(h, i)
		e := &t.entries[slot]
		if !e.used {
			return -1
		}
		if e.FlowID == id && e.Key == key {
			if t.expired(e, now) {
				return -1
			}
			return slot
		}
	}
	return -1
}

// Each calls fn for every live entry in ascending slot order (expired ones
// excluded when a TTL is configured and now > 0). It walks the occupancy
// bitmap, so an almost-empty table costs its live entries plus one pass
// over 1 bit per slot. Live entries of a sparse table are one DRAM miss
// each, so the walk runs prefetchWindow entries behind its own prefetches,
// the same overlap the engine's prefetch pass buys. The pointer is into
// the table and valid only during the call; fn may overwrite *e but must
// not call anything that probes.
func (t *Table) Each(now int64, fn func(slot int, e *Entry)) {
	var ring [prefetchWindow]int
	queued := 0
	visit := func(slot int) {
		if e := &t.entries[slot]; now <= 0 || !t.expired(e, now) {
			fn(slot, e)
		}
	}
	for w, word := range t.occ {
		for ; word != 0; word &= word - 1 {
			slot := w<<6 | bits.TrailingZeros64(word)
			if queued >= len(ring) {
				visit(ring[queued%len(ring)])
			}
			t.prefetchSlot(slot)
			ring[queued%len(ring)] = slot
			queued++
		}
	}
	for i := max(0, queued-len(ring)); i < queued; i++ {
		visit(ring[i%len(ring)])
	}
}

// Snapshot copies out all live entries (expired ones excluded when a TTL is
// configured and now > 0), in ascending slot order.
func (t *Table) Snapshot(now int64) []Entry {
	out := make([]Entry, 0, t.size)
	t.Each(now, func(_ int, e *Entry) { out = append(out, *e) })
	return out
}

// Len returns the number of occupied slots (including expired-but-not-yet-
// reclaimed entries).
func (t *Table) Len() int { return t.size }

// Capacity returns the table size in entries.
func (t *Table) Capacity() int { return len(t.entries) }

// LoadFactor is Len/Capacity.
func (t *Table) LoadFactor() float64 {
	return float64(t.size) / float64(len(t.entries))
}

// MemoryBytes reports DRAM consumption using the paper's 33-byte entries.
// The occupancy bitmap (1 bit per slot, +0.4 %) is this implementation's
// index, not part of the paper's accounting, and is left out.
func (t *Table) MemoryBytes() int { return len(t.entries) * EntryBytes }

// Stats returns a copy of the activity counters.
func (t *Table) Stats() Stats { return t.stats }

// Reset clears all entries and statistics.
func (t *Table) Reset() {
	t.Each(0, func(_ int, e *Entry) { *e = Entry{} })
	clear(t.occ)
	t.size = 0
	t.stats = Stats{}
	if t.tm != nil {
		t.tm.Occupancy.Set(0)
	}
}

func (t *Table) place(slot int, id uint32, key packet.FlowKey, pkts, bytes float64, now int64) {
	t.occ[slot>>6] |= 1 << (slot & 63)
	t.entries[slot] = Entry{
		FlowID:     id,
		Key:        key,
		Pkts:       pkts,
		Bytes:      bytes,
		FirstSeen:  now,
		LastUpdate: now,
		used:       true,
		chance:     true,
	}
	t.size++
}

func (t *Table) expired(e *Entry, now int64) bool {
	return t.ttl > 0 && now-e.LastUpdate > t.ttl
}

// slot returns the i-th probe position for hash h under the configured
// probing policy.
func (t *Table) slot(h uint64, i int) int {
	if t.probing == ProbeLinear {
		return int((h + uint64(i)) & t.mask)
	}
	return int((h + triangular(i)) & t.mask)
}

// triangular returns i(i+1)/2, the paper's 0.5i+0.5i² probe offset; over a
// power-of-two table the sequence visits all slots.
func triangular(i int) uint64 {
	u := uint64(i)
	return u * (u + 1) / 2
}
