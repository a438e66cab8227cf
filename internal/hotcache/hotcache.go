// Package hotcache implements the exact hot-flow promotion cache that
// fronts the FlowRegulator + WSAF path: a compact, fixed-size,
// set-associative table holding the few thousand heaviest flows. A hit
// costs one set probe and counts the packet exactly — no sketch noise, no
// saturation-sampled bytes, no DRAM walk — so the flows that carry most
// of the traffic bypass the regulator entirely (the PriMe fast-tier
// argument). Misses fall through to the regular path unchanged.
//
// Layout: the cache is ways-associative over contiguous storage. Each
// set's 8 tag words are packed into one 64-byte line (tags[set*8 ..
// set*8+7]), so the common case — a probe that misses or hits on the tag
// — touches exactly one cache line before the full-key confirm against
// the parallel entry array.
//
// Admission follows PRECISION's probabilistic recirculation: when a flow
// passes through the regulator into the WSAF and its set is full, the
// incumbent with the smallest exact count is replaced with probability
// 1/(count+1). A flow of true size s therefore wins a slot with
// probability ≈ s/(s+c) over its lifetime — elephants promote almost
// surely, mice almost never — without keeping any per-flow admission
// state.
//
// Cache entries hold the exact packet/byte DELTA accumulated since
// promotion. The flow's pre-promotion estimate stays in the WSAF; on
// demotion the delta is folded back into the WSAF entry, and snapshot
// readers merge live deltas in, so the two tiers always present one
// coherent table (no loss, no double count — the cached differential
// oracle leg enforces both).
package hotcache

import (
	"errors"
	"fmt"
	"math/bits"

	"instameasure/internal/flowhash"
	"instameasure/internal/packet"
)

// ways is the set associativity: 8 tag words per set is exactly one
// 64-byte cache line, the packing the probe cost model assumes.
const ways = 8

// Config parameterizes a Cache.
type Config struct {
	// Entries is the target capacity; it is rounded up so the set count
	// is a power of two (ways stay fixed at 8). 0 means 4096, the ~4k
	// sweet spot where the cache stays L2-resident.
	Entries int
	// Seed drives the admission coin flips (deterministic per seed).
	Seed uint64
}

// ErrEntries rejects nonsensical capacities.
var ErrEntries = errors.New("hotcache: Entries must be >= 0")

// Entry is one promoted flow. Pkts and Bytes are the exact totals
// accumulated since promotion (the delta on top of the flow's WSAF
// estimate); FirstSeen is the promotion timestamp.
type Entry struct {
	// Hash is the flow's 64-bit key hash, stored so demotion can fold
	// the delta back into the WSAF without re-hashing (one hash per
	// packet holds across tiers).
	Hash       uint64
	Key        packet.FlowKey
	Pkts       uint64
	Bytes      uint64
	FirstSeen  int64
	LastUpdate int64
	// BasePkts/BaseBytes are the flow's WSAF totals at admission time —
	// the pre-promotion estimate the live delta sits on. They make the
	// flow's merged totals (base + delta) readable from the cache line
	// alone, which is what keeps threshold-crossing detection off the
	// DRAM path while the flow is cached.
	BasePkts  float64
	BaseBytes float64
	// Index is the WSAF entry index the admitting (or last AlreadyCached)
	// accumulate wrote: the only writes of the flow's key into the table,
	// and an entry never moves, so the flow's entry is at Index or nowhere.
	Index uint32
	// Notified records which armed crossing thresholds already fired
	// for this residency (bit 0 packets, bit 1 bytes), so each
	// dimension reports at most once per promotion.
	Notified uint8
}

// Notified bits.
const (
	notifiedPkts  uint8 = 1 << 0
	notifiedBytes uint8 = 1 << 1
)

// Stats aggregates cache activity. Hits/HitBytes count the packets and
// bytes counted exactly by the cache; DemotedPkts/DemotedBytes are the
// deltas handed back to the WSAF by replacements, so at any instant
//
//	Σ live deltas + DemotedPkts == Hits
//
// — the conservation identity the oracle checks.
type Stats struct {
	Hits         uint64
	HitBytes     uint64
	Promotions   uint64
	Demotions    uint64
	DemotedPkts  uint64
	DemotedBytes uint64
	// Rejected counts admission attempts the probabilistic rule
	// declined.
	Rejected uint64
}

// AdmitResult classifies what Admit did.
type AdmitResult int

// Admit results.
const (
	// NotAdmitted: the admission rule kept the incumbents; nothing changed.
	NotAdmitted AdmitResult = iota
	// AdmittedFree: the flow took an empty way; no demotion.
	AdmittedFree
	// AdmittedReplaced: the flow displaced an incumbent whose delta the
	// caller must fold back into the WSAF (written to *victim).
	AdmittedReplaced
	// AlreadyCached: the flow already holds a way (a batched burst can
	// deliver a second regulator passthrough for a flow promoted by an
	// earlier packet of the same burst). The incumbent entry's
	// pre-promotion base was refreshed; its live delta, timestamps, and
	// way are untouched.
	AlreadyCached
)

// Cache is a fixed-size promotion cache. It is not safe for concurrent
// use; the sharded pipeline gives every worker engine a private cache,
// preserving the shared-nothing invariant.
type Cache struct {
	tags    []uint64 // tags[set*ways+w]; 0 marks an empty way
	ents    []Entry  // parallel to tags
	setMask uint64
	rng     uint64 // splitmix state for admission coin flips

	// Crossing notification (SetCrossing): cache hits bypass the
	// regulator, so without this a detector watching passthrough events
	// would never see a promoted flow again. When armed, Bump fires the
	// callback the first time a cached flow's merged totals (base +
	// delta) cross a threshold — at most once per dimension per
	// residency, so the callback is off the per-packet budget.
	thPkts  float64
	thBytes float64
	fire    func(e *Entry, ts int64)

	size  int
	stats Stats
}

// New builds a Cache from cfg.
func New(cfg Config) (*Cache, error) {
	if cfg.Entries < 0 {
		return nil, fmt.Errorf("%w (got %d)", ErrEntries, cfg.Entries)
	}
	entries := cfg.Entries
	if entries == 0 {
		entries = 4096
	}
	sets := (entries + ways - 1) / ways
	if bits.OnesCount(uint(sets)) != 1 {
		sets = 1 << bits.Len(uint(sets))
	}
	return &Cache{
		tags:    make([]uint64, sets*ways),
		ents:    make([]Entry, sets*ways),
		setMask: uint64(sets - 1),
		// Mix the seed so seed 0 and seed 1 diverge immediately.
		rng: flowhash.Mix64(cfg.Seed ^ 0xA51CAFE5EED),
	}, nil
}

// MustNew is New for statically-known-good configs; it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// set returns the base index of h's set. The set bits come from the
// hash's upper half: the WSAF probe and the sketch indices consume the
// low bits, so the tiers probe independent projections of the one hash.
func (c *Cache) set(h uint64) int {
	return int((h>>32)&c.setMask) * ways
}

// SetCrossing arms threshold-crossing notification: fire is invoked from
// inside Bump with the entry (pointer into cache storage, valid only
// during the call) and the crossing packet's timestamp, the first time a
// cached flow's merged totals reach thPkts packets or thBytes bytes
// (either may be 0 to disable that dimension). A dimension the flow's
// pre-promotion base already crossed never fires — that crossing was
// visible to passthrough observers before promotion. Must be set before
// traffic; survives Reset (it is configuration, not state).
func (c *Cache) SetCrossing(thPkts, thBytes float64, fire func(e *Entry, ts int64)) {
	c.thPkts = thPkts
	c.thBytes = thBytes
	c.fire = fire
}

// cross fires the armed crossing callback for each threshold dimension
// the entry's merged totals newly reached. Called only on cache hits
// with c.fire non-nil; the Notified bits keep it to at most two
// invocations per residency.
func (c *Cache) cross(e *Entry, ts int64) {
	fired := false
	if c.thPkts > 0 && e.Notified&notifiedPkts == 0 && e.BasePkts+float64(e.Pkts) >= c.thPkts {
		e.Notified |= notifiedPkts
		fired = true
	}
	if c.thBytes > 0 && e.Notified&notifiedBytes == 0 && e.BaseBytes+float64(e.Bytes) >= c.thBytes {
		e.Notified |= notifiedBytes
		fired = true
	}
	if fired {
		c.fire(e, ts)
	}
}

// seedNotified marks the dimensions the flow's pre-promotion base has
// already crossed: those crossings fired (or fire) through the regular
// passthrough event for the packet that carried the flow into the WSAF,
// so the cache must not report them a second time.
func (c *Cache) seedNotified(e *Entry) {
	if c.thPkts > 0 && e.BasePkts >= c.thPkts {
		e.Notified |= notifiedPkts
	}
	if c.thBytes > 0 && e.BaseBytes >= c.thBytes {
		e.Notified |= notifiedBytes
	}
}

// Bump looks the flow up and, on a hit, counts the packet exactly.
// It is the first touch on the per-packet hot path: one tag-line scan,
// and only on a tag match the full-key confirm. Returns whether the
// packet was absorbed (true = the caller must not run the regulator or
// the WSAF for it). When SetCrossing armed a threshold, the hit that
// carries the flow's merged totals across it fires the crossing
// callback before Bump returns.
//
//im:hotpath
func (c *Cache) Bump(h uint64, key *packet.FlowKey, length uint16, ts int64) bool {
	base := c.set(h)
	tags := c.tags[base : base+ways]
	for w := 0; w < ways; w++ {
		if tags[w] != h {
			continue
		}
		e := &c.ents[base+w]
		if e.Key != *key {
			continue
		}
		e.Pkts++
		e.Bytes += uint64(length)
		e.LastUpdate = ts
		c.stats.Hits++
		c.stats.HitBytes += uint64(length)
		if c.fire != nil {
			c.cross(e, ts)
		}
		return true
	}
	return false
}

// Admit offers a flow that just passed through the regulator into the
// WSAF a cache slot. An empty way is taken unconditionally; in a full set
// the smallest incumbent is replaced with probability 1/(count+1). When an
// incumbent is displaced its entry (the delta to fold back into the WSAF)
// is written to *victim and AdmittedReplaced is returned. A newly admitted
// entry starts at zero: the packet that triggered admission was already
// accounted to the WSAF by the caller. basePkts/baseBytes are the flow's
// WSAF totals after that accumulate — the pre-promotion estimate recorded
// on the entry so merged totals stay readable from the cache alone, and
// index is the WSAF entry that accumulate wrote (see Entry.Index).
//
// h must be the flow's Hash64 under the engine's hash seed. A flow that
// is already cached — a batched burst probes every packet before any
// admission, so a second same-burst passthrough can arrive for a flow
// promoted moments earlier — is detected on the tag line and returns
// AlreadyCached with only its base and index refreshed: no duplicate way,
// no promotion count, no delta reset.
//
//im:hotpath
func (c *Cache) Admit(h uint64, key *packet.FlowKey, index uint32, ts int64, basePkts, baseBytes float64, victim *Entry) AdmitResult {
	if h == 0 {
		// Tag 0 marks an empty way; the one-in-2^64 flow hashing to 0
		// simply never promotes.
		return NotAdmitted
	}
	base := c.set(h)
	tags := c.tags[base : base+ways]

	// Duplicate guard: the tag line is already loaded, so this costs the
	// same 8 compares a Bump probe does. Without it a duplicate would
	// waste a way, inflate Promotions/Len, and shadow the incumbent's
	// live delta from point lookups.
	for w := 0; w < ways; w++ {
		if tags[w] != h {
			continue
		}
		if e := &c.ents[base+w]; e.Key == *key {
			// The WSAF totals just grew past the recorded base; refresh
			// it (the live delta counts only cache hits, which the WSAF
			// never saw, so base+delta stays the merged truth). The
			// accumulate may have re-inserted the flow at a new index.
			e.BasePkts, e.BaseBytes, e.Index = basePkts, baseBytes, index
			c.seedNotified(e)
			return AlreadyCached
		}
	}

	// Free way first, else PRECISION: the smallest incumbent is replaced
	// with probability 1/(count+1), so only flows that keep coming back —
	// elephants — eventually win the slot.
	victimWay := -1
	var minPkts uint64
	for w := 0; w < ways; w++ {
		if tags[w] == 0 {
			c.place(base+w, h, key, index, ts, basePkts, baseBytes)
			return AdmittedFree
		}
		if e := &c.ents[base+w]; victimWay < 0 || e.Pkts < minPkts {
			minPkts = e.Pkts
			victimWay = w
		}
	}
	c.rng += 0x9E3779B97F4A7C15
	if flowhash.Mix64(c.rng) >= ^uint64(0)/(minPkts+1) {
		c.stats.Rejected++
		return NotAdmitted
	}

	v := &c.ents[base+victimWay]
	*victim = *v
	c.stats.Demotions++
	c.stats.DemotedPkts += v.Pkts
	c.stats.DemotedBytes += v.Bytes
	c.size--
	c.place(base+victimWay, h, key, index, ts, basePkts, baseBytes)
	return AdmittedReplaced
}

// place installs a fresh zero-delta entry at index i.
func (c *Cache) place(i int, h uint64, key *packet.FlowKey, index uint32, ts int64, basePkts, baseBytes float64) {
	c.tags[i] = h
	c.ents[i] = Entry{Hash: h, Key: *key, BasePkts: basePkts, BaseBytes: baseBytes,
		FirstSeen: ts, LastUpdate: ts, Index: index}
	c.seedNotified(&c.ents[i])
	c.size++
	c.stats.Promotions++
}

// Lookup returns a copy of the flow's cache entry without mutating any
// state — the snapshot/estimate merge path and the oracle's shadow
// tracker use it.
func (c *Cache) Lookup(h uint64, key packet.FlowKey) (Entry, bool) {
	base := c.set(h)
	for w := 0; w < ways; w++ {
		if c.tags[base+w] != h {
			continue
		}
		if e := &c.ents[base+w]; e.Key == key {
			return *e, true
		}
	}
	return Entry{}, false
}

// Each calls fn for every live entry with its index, in index order. The
// pointer is into cache storage and valid only during the call.
func (c *Cache) Each(fn func(i int, e *Entry)) {
	for i, tag := range c.tags {
		if tag != 0 {
			fn(i, &c.ents[i])
		}
	}
}

// At returns the entry at index i, as Each numbers them.
func (c *Cache) At(i int) *Entry { return &c.ents[i] }

// Len returns the number of promoted flows.
func (c *Cache) Len() int { return c.size }

// Capacity returns the rounded entry capacity.
func (c *Cache) Capacity() int { return len(c.ents) }

// MemoryBytes reports the cache footprint: the packed tag lines plus the
// entry array.
func (c *Cache) MemoryBytes() int {
	return len(c.tags)*8 + len(c.ents)*entryBytes
}

// entryBytes is the accounting size of one cache entry: 8 (hash) + 38
// (key) + 8 + 8 (counters) + 8 + 8 (timestamps) + 8 + 8 (pre-promotion
// base) + 4 (WSAF index) + 1 (notified bits).
const entryBytes = 99

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears all entries and statistics.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.ents[i] = Entry{}
	}
	c.size = 0
	c.stats = Stats{}
}
