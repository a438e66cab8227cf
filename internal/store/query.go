package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"instameasure/internal/export"
	"instameasure/internal/flowtable"
	"instameasure/internal/packet"
	"instameasure/internal/topk"
)

// Window is an inclusive epoch range. A zero From means "from the
// beginning"; a zero To means "up to the latest epoch". Epochs are the
// caller-assigned identifiers passed to Append — positive, typically
// sequential (the CLIs count 1, 2, 3, ...).
type Window struct {
	From int64 `json:"from,omitempty"`
	To   int64 `json:"to,omitempty"`
}

// FlowDelta is one flow's traffic within a queried window: the growth of
// its cumulative counters between the window's boundary snapshots.
type FlowDelta struct {
	Key   packet.FlowKey
	Pkts  float64
	Bytes float64
}

// TimelinePoint is one epoch's observation of a flow.
type TimelinePoint struct {
	Epoch int64 `json:"epoch"`
	// TS is the flow's LastUpdate trace timestamp at that epoch.
	TS    int64   `json:"ts"`
	Pkts  float64 `json:"pkts"`
	Bytes float64 `json:"bytes"`
}

// FlowChange is one flow's rate change between two windows: the newer
// window's delta minus the older window's, per dimension.
type FlowChange struct {
	Key        packet.FlowKey
	Pkts       float64 // newer-window delta minus older-window delta
	Bytes      float64
	NewerPkts  float64
	OlderPkts  float64
	NewerBytes float64
	OlderBytes float64
}

// StoreStats summarizes the store's on-disk state.
type StoreStats struct {
	Segments     int    `json:"segments"`
	Records      uint64 `json:"records"` // indexed epoch records
	Flows        uint64 `json:"flows"`   // flow rows across all records
	Bytes        int64  `json:"bytes"`
	Epochs       int    `json:"epochs"` // distinct epochs
	MinEpoch     int64  `json:"min_epoch"`
	MaxEpoch     int64  `json:"max_epoch"`
	Appends      uint64 `json:"appends"`
	AppendErrors uint64 `json:"append_errors"` // Append calls that failed: each lost its epoch
	Truncations  uint64 `json:"truncations"`
}

// Stats returns the store's current summary.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Segments:     len(s.segs),
		Appends:      s.stats.appends,
		AppendErrors: s.stats.appendErrors,
		Truncations:  s.stats.truncations,
	}
	for _, seg := range s.segs {
		st.Bytes += seg.size
	}
	seen := make(map[int64]struct{})
	for i, r := range s.refs {
		st.Records++
		st.Flows += uint64(r.count)
		seen[r.epoch] = struct{}{}
		if i == 0 || r.epoch < st.MinEpoch {
			st.MinEpoch = r.epoch
		}
		if r.epoch > st.MaxEpoch {
			st.MaxEpoch = r.epoch
		}
	}
	st.Epochs = len(seen)
	return st
}

// Epochs returns the distinct epochs present, ascending.
func (s *Store) Epochs() []int64 {
	s.mu.Lock()
	seen := make(map[int64]struct{}, len(s.refs))
	for _, r := range s.refs {
		seen[r.epoch] = struct{}{}
	}
	s.mu.Unlock()
	out := make([]int64, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// snapshotRefs returns the index as it stands. Appends only ever add refs
// past its end, so the slice stays valid without a copy.
func (s *Store) snapshotRefs() ([]recordRef, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.act == nil {
		return nil, ErrClosed
	}
	return s.refs[:len(s.refs):len(s.refs)], nil
}

// segReader is a query's state — segment files opened at most once, one
// frame buffer, the window tables — pooled so queries reuse its arrays.
type segReader struct {
	dir     string
	files   map[int]*os.File
	buf     []byte
	windows [2]flowtable.Table[flowWindow] // windowDelta's, Reset per use
	recs    [flowtable.Burst]export.Record // each's decode burst (a local would escape via fn)
}

var segReaders = sync.Pool{New: func() any { return &segReader{files: make(map[int]*os.File)} }}

func newSegReader(dir string) *segReader {
	sr := segReaders.Get().(*segReader)
	sr.dir = dir
	return sr
}

// each re-verifies ref's frame and decodes it in place, a burst of
// records at a time into sr.recs, handing every burst to fn in frame
// order. The records are overwritten by the next burst, and fn has seen
// the records ahead of a malformed one when an error comes back.
func (sr *segReader) each(ref recordRef, fn func([]export.Record)) (export.TableStats, error) {
	f, ok := sr.files[ref.seg]
	if !ok {
		var err error
		f, err = os.Open(filepath.Join(sr.dir, segName(ref.seg)))
		if err != nil {
			return export.TableStats{}, err
		}
		sr.files[ref.seg] = f
	}
	if int64(cap(sr.buf)) < ref.size {
		sr.buf = make([]byte, ref.size)
	}
	payload, err := readFrame(f, ref, sr.buf[:ref.size])
	if err != nil {
		return export.TableStats{}, err
	}
	_, stats, _, err := export.DecodeSnapshotStats(payload, sr.recs[:], fn)
	if err != nil {
		return export.TableStats{}, fmt.Errorf("store: decode epoch %d: %w", ref.epoch, err)
	}
	return stats, nil
}

// eachBurst is each for resolving every record in t: a burst's keys are
// hashed and hinted in t, then fn gets its records in frame order.
func (sr *segReader) eachBurst(ref recordRef, t interface{ Prefetch(uint64) }, fn func(h uint64, rec *export.Record)) (export.TableStats, error) {
	var hs [flowtable.Burst]uint64
	return sr.each(ref, func(recs []export.Record) {
		for i := range recs {
			hs[i] = flowtable.Hash(&recs[i].Key)
			t.Prefetch(hs[i])
		}
		for i := range recs {
			fn(hs[i], &recs[i])
		}
	})
}

// close closes every segment file the reader opened, returns it to the
// pool, and reports the first failure: a read-only descriptor that cannot
// close cleanly means a deferred I/O problem, so the results are suspect.
func (sr *segReader) close() error {
	var first error
	for _, f := range sr.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	clear(sr.files)
	segReaders.Put(sr)
	return first
}

// query runs fn once against the index as it stands: records are never
// rewritten or deleted, so every ref fn is handed stays readable.
func (s *Store) query(fn func(refs []recordRef, sr *segReader) error) error {
	refs, err := s.snapshotRefs()
	if err != nil {
		return err
	}
	sr := newSegReader(s.dir)
	err = fn(refs, sr)
	if cerr := sr.close(); err == nil {
		err = cerr
	}
	return err
}

// EpochRecords returns the exact flow records and stats trailer of the
// most recent append tagged with precisely this epoch — the archival
// read-back path (the differential oracle asserts it is bit-identical to
// what was appended). ok is false when no such epoch exists.
func (s *Store) EpochRecords(epoch int64) (records []export.Record, stats export.TableStats, ok bool, err error) {
	err = s.query(func(refs []recordRef, sr *segReader) error {
		var match *recordRef
		for i := range refs {
			if refs[i].epoch == epoch {
				match = &refs[i]
			}
		}
		if match == nil {
			return nil
		}
		recs := make([]export.Record, 0, match.count)
		st, derr := sr.each(*match, func(burst []export.Record) { recs = append(recs, burst...) })
		if derr != nil {
			return derr
		}
		records, stats, ok = recs, st, true
		return nil
	})
	return records, stats, ok, err
}

// latestAt finds the latest epoch ≤ e (e ≤ 0: the latest of all) and
// how many flow rows its records hold together. found is false when no
// record is that old.
func latestAt(refs []recordRef, e int64) (epoch int64, rows int, found bool) {
	for _, r := range refs {
		if e > 0 && r.epoch > e {
			continue
		}
		switch {
		case !found || r.epoch > epoch:
			epoch, rows, found = r.epoch, int(r.count), true
		case r.epoch == epoch:
			rows += int(r.count)
		}
	}
	return epoch, rows, found
}

// eachAt streams the cumulative table as of one epoch into t: every
// record carrying that epoch, in append order, so the last value fn sees
// for a flow is the one that counts (later appends win per flow).
func eachAt(refs []recordRef, sr *segReader, epoch int64, t *flowtable.Table[flowWindow], fn func(h uint64, rec *export.Record)) error {
	for _, r := range refs {
		if r.epoch != epoch {
			continue
		}
		if _, err := sr.eachBurst(r, t, fn); err != nil {
			return err
		}
	}
	return nil
}

// flowWindow is one flow's cumulative counters at a window's two boundary
// snapshots: the table at the window's end, and the table just before its
// start (zero when the flow was absent there, or the window has no base).
type flowWindow struct {
	endPkts, endBytes   float64
	basePkts, baseBytes float64
}

// delta is the flow's counter growth across the window. A negative
// difference means the flow's WSAF entry restarted (eviction or TTL)
// inside the window; the end-of-window value is the floor in that case.
// A flow that did not grow reads 0, 0 and is left out of every ranking.
func (f *flowWindow) delta() (pkts, bytes float64) {
	pkts, bytes = f.endPkts-f.basePkts, f.endBytes-f.baseBytes
	if pkts < 0 || bytes < 0 {
		return f.endPkts, f.endBytes
	}
	return pkts, bytes
}

// windowDelta fills t with every flow of the window's end snapshot and
// streams the base snapshot through it by lookup, one hash per record per
// pass.
func windowDelta(refs []recordRef, sr *segReader, w Window, t *flowtable.Table[flowWindow]) error {
	end, rows, found := latestAt(refs, w.To)
	t.Reset(rows)
	if !found {
		return nil
	}
	err := eachAt(refs, sr, end, t, func(h uint64, rec *export.Record) {
		v, _ := t.Upsert(h, &rec.Key)
		v.endPkts, v.endBytes = rec.Pkts, rec.Bytes
	})
	// A baseline exists only for From > 1: From-1 == 0 would hit latestAt's
	// "latest" sentinel and subtract the newest table from itself, zeroing
	// every flow that stopped growing before the window end. Epochs are
	// positive, so a window starting at 1 (or unbounded) has an empty base.
	if err != nil || w.From <= 1 {
		return err
	}
	base, _, found := latestAt(refs, w.From-1)
	if !found {
		return nil
	}
	return eachAt(refs, sr, base, t, func(h uint64, rec *export.Record) {
		if v := t.Get(h, &rec.Key); v != nil {
			v.basePkts, v.baseBytes = rec.Pkts, rec.Bytes
		}
	})
}

// NewRanking returns the collection tier's one ranking: the k rows with the
// largest score offered, largest first, equal scores in KeyLess order of
// the rows' flow keys so an answer does not depend on the order flows were
// stored in. k <= 0 keeps all of the (at most n) rows.
func NewRanking[T any](k, n int, key func(*T) *packet.FlowKey) *topk.Selector[T] {
	if k <= 0 {
		k = n
	}
	return topk.NewTied(k, func(a, b *T) bool { return keyLess(key(a), key(b)) })
}

// keyLess is a deterministic total order over flow keys, the rankings'
// tie-break.
func keyLess(a, b *packet.FlowKey) bool {
	if a.IsV6 != b.IsV6 {
		return !a.IsV6
	}
	if c := bytes.Compare(a.SrcIP[:], b.SrcIP[:]); c != 0 {
		return c < 0
	}
	if c := bytes.Compare(a.DstIP[:], b.DstIP[:]); c != 0 {
		return c < 0
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

// DeltaKey is NewRanking's key accessor for FlowDelta rows.
func DeltaKey(d *FlowDelta) *packet.FlowKey { return &d.Key }

// pick returns the ranked dimension.
func pick(byBytes bool, pkts, bytes float64) float64 {
	if byBytes {
		return bytes
	}
	return pkts
}

// TopK returns the k largest flows by packet (or byte) growth within the
// window, largest first. A zero window ranks absolute totals at the
// latest epoch.
func (s *Store) TopK(w Window, k int, byBytes bool) ([]FlowDelta, error) {
	start := time.Now()
	var out []FlowDelta
	err := s.query(func(refs []recordRef, sr *segReader) error {
		t := &sr.windows[0]
		if err := windowDelta(refs, sr, w, t); err != nil {
			return err
		}
		sel := NewRanking(k, t.Len(), DeltaKey)
		var d FlowDelta // one candidate row for the whole walk: Offer copies what it keeps
		t.Each(func(_ uint64, key *packet.FlowKey, v *flowWindow) {
			if d.Pkts, d.Bytes = v.delta(); d.Pkts != 0 || d.Bytes != 0 {
				d.Key = *key
				sel.Offer(pick(byBytes, d.Pkts, d.Bytes), &d)
			}
		})
		out = sel.Sorted()
		return nil
	})
	s.observeQuery(queryTopK, start)
	return out, err
}

// Timeline returns the flow's per-epoch series within the window,
// ascending by epoch. Epochs where the flow is absent yield no point.
func (s *Store) Timeline(key packet.FlowKey, w Window) ([]TimelinePoint, error) {
	pts, _, err := s.timeline(w, func(k *packet.FlowKey) bool { return *k == key })
	return pts, err
}

// TimelineByHash is Timeline keyed by the 64-bit flow ID
// (packet.FlowKey.Hash64 with seed 0), for callers that only hold the
// hash — e.g. the HTTP API's ?flow= parameter. The matched key is
// returned alongside the series.
func (s *Store) TimelineByHash(h uint64) ([]TimelinePoint, packet.FlowKey, error) {
	return s.timeline(Window{}, func(k *packet.FlowKey) bool { return k.Hash64(0) == h })
}

func (s *Store) timeline(w Window, match func(*packet.FlowKey) bool) ([]TimelinePoint, packet.FlowKey, error) {
	start := time.Now()
	byEpoch := make(map[int64]TimelinePoint)
	var matched packet.FlowKey
	err := s.query(func(refs []recordRef, sr *segReader) error {
		for _, r := range refs {
			if w.From > 0 && r.epoch < w.From {
				continue
			}
			if w.To > 0 && r.epoch > w.To {
				continue
			}
			_, err := sr.each(r, func(burst []export.Record) {
				for i := range burst {
					if rec := &burst[i]; match(&rec.Key) {
						matched = rec.Key
						byEpoch[r.epoch] = TimelinePoint{
							Epoch: r.epoch,
							TS:    rec.LastUpdate,
							Pkts:  rec.Pkts,
							Bytes: rec.Bytes,
						}
					}
				}
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	s.observeQuery(queryTimeline, start)
	if err != nil {
		return nil, packet.FlowKey{}, err
	}
	out := make([]TimelinePoint, 0, len(byEpoch))
	for _, p := range byEpoch {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out, matched, nil
}

// HeavyChangers returns the k flows whose windowed traffic changed the
// most between the older and newer windows — the cross-epoch analogue of
// heavy-hitter detection. Flows are ranked by the absolute change in the
// chosen dimension, largest first.
func (s *Store) HeavyChangers(older, newer Window, k int, byBytes bool) ([]FlowChange, error) {
	start := time.Now()
	var out []FlowChange
	err := s.query(func(refs []recordRef, sr *segReader) error {
		dOld, dNew := &sr.windows[0], &sr.windows[1]
		if err := windowDelta(refs, sr, older, dOld); err != nil {
			return err
		}
		if err := windowDelta(refs, sr, newer, dNew); err != nil {
			return err
		}
		sel := NewRanking(k, dNew.Len()+dOld.Len(), func(c *FlowChange) *packet.FlowKey { return &c.Key })
		var c FlowChange // one candidate row for both walks: Offer copies what it keeps
		offer := func(key *packet.FlowKey, newPkts, newBytes, oldPkts, oldBytes float64) {
			c = FlowChange{
				Key:       *key,
				Pkts:      newPkts - oldPkts,
				Bytes:     newBytes - oldBytes,
				NewerPkts: newPkts, OlderPkts: oldPkts,
				NewerBytes: newBytes, OlderBytes: oldBytes,
			}
			sel.Offer(abs(pick(byBytes, c.Pkts, c.Bytes)), &c)
		}
		// Every flow that grew in either window is ranked once: the newer
		// window's flows joined to the older by lookup, then the flows only
		// the older window saw grow.
		flowtable.Join(dNew, dOld, func(key *packet.FlowKey, v, o *flowWindow) {
			newPkts, newBytes := v.delta()
			var oldPkts, oldBytes float64
			if o != nil {
				oldPkts, oldBytes = o.delta()
			}
			if newPkts != 0 || newBytes != 0 || oldPkts != 0 || oldBytes != 0 {
				offer(key, newPkts, newBytes, oldPkts, oldBytes)
			}
		})
		flowtable.Join(dOld, dNew, func(key *packet.FlowKey, v, n *flowWindow) {
			if n != nil {
				return
			}
			if oldPkts, oldBytes := v.delta(); oldPkts != 0 || oldBytes != 0 {
				offer(key, 0, 0, oldPkts, oldBytes)
			}
		})
		out = sel.Sorted()
		return nil
	})
	s.observeQuery(queryChangers, start)
	return out, err
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// DefaultChangerWindows derives the conventional heavy-changer windows
// from the epochs on hand: the newest epoch versus the one before it.
// ok is false with fewer than two epochs.
func (s *Store) DefaultChangerWindows() (older, newer Window, ok bool) {
	epochs := s.Epochs()
	if len(epochs) < 2 {
		return Window{}, Window{}, false
	}
	n := epochs[len(epochs)-1]
	o := epochs[len(epochs)-2]
	return Window{From: o, To: o}, Window{From: n, To: n}, true
}
