package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"instameasure/internal/export"
	"instameasure/internal/flight"
	"instameasure/internal/flowtable"
	"instameasure/internal/packet"
)

// SyncPolicy selects the append durability/throughput trade-off.
type SyncPolicy int

const (
	// SyncNone leaves flushing to the OS: an OS crash can lose recent
	// appends, but a process crash cannot corrupt the store (the torn
	// tail is truncated on reopen). The default.
	SyncNone SyncPolicy = iota
	// SyncEach fsyncs the active segment after every append: an epoch
	// acknowledged as appended survives power loss.
	SyncEach
)

// Options parameterizes a Store. The zero value is a sane default:
// 64 MB segments, no fsync, unlimited retention, compaction disabled.
type Options struct {
	// SegmentBytes seals the active segment once it reaches this size
	// (default 64 MB). Smaller segments give retention and compaction a
	// finer grain.
	SegmentBytes int64
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
	// MaxSegments caps the number of segment files; the oldest sealed
	// segments are deleted beyond it (0 = unlimited).
	MaxSegments int
	// MaxBytes caps the store's total size the same way (0 = unlimited).
	MaxBytes int64
	// MaxAge deletes sealed segments whose newest record is older than
	// this (0 = unlimited). Age is wall-clock at append time.
	MaxAge time.Duration
	// CompactSegments, when positive, keeps at most this many sealed
	// segments un-compacted: older ones are merged in the background into
	// per-flow rollup records (cumulative values at the window's newest
	// epoch), trading per-epoch granularity of old history for space.
	CompactSegments int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// segmentInfo is the in-memory state of one segment file.
type segmentInfo struct {
	id     int
	size   int64
	sealed bool
}

// Store is an append-only epoch history: segmented log files, an
// in-memory record index built by scanning on open, and background
// retention and compaction. Append and the query methods are safe for
// concurrent use.
type Store struct {
	dir string
	opt Options

	mu    sync.Mutex
	segs  []segmentInfo // ascending id; last may be active
	refs  []recordRef   // append order within each segment, segments ascending
	act   *os.File      // active segment, opened for append
	actID int
	enc   []byte // reusable frame-encoding buffer
	err   error  // sticky append-path failure
	stats storeCounters

	tm *storeMetrics // nil until Instrument
	fl flight.Handle

	kick   chan struct{}
	closed chan struct{}
	wg     sync.WaitGroup
}

// storeCounters tracks store activity for StoreStats and telemetry.
type storeCounters struct {
	appends     uint64
	appendBytes uint64
	truncations uint64 // torn tails recovered on open
	compactions uint64
	retired     uint64 // segments deleted by retention
}

// ErrClosed is returned by appends and queries after Close.
var ErrClosed = errors.New("store: closed")

// Open opens (creating if needed) the store at dir. Every existing
// segment is scanned and any torn tail truncated before the store is
// usable.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:    dir,
		opt:    opt,
		kick:   make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
	if err := s.scanDir(); err != nil {
		return nil, err
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.maintain()
	return s, nil
}

// scanDir indexes every segment file, truncating torn tails.
func (s *Store) scanDir() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var ids []int
	for _, e := range entries {
		if id, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		path := filepath.Join(s.dir, segName(id))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		refs, validLen := parseSegment(id, data)
		if validLen < int64(len(data)) {
			if err := os.Truncate(path, validLen); err != nil {
				return fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
			}
			s.stats.truncations++
		}
		s.segs = append(s.segs, segmentInfo{id: id, size: validLen, sealed: true})
		s.refs = append(s.refs, refs...)
	}
	return nil
}

// openActive opens the segment appends go to: the newest existing segment
// if it still has room, a fresh one otherwise.
func (s *Store) openActive() error {
	id := 1
	if n := len(s.segs); n > 0 {
		last := &s.segs[n-1]
		if last.size < s.opt.SegmentBytes {
			f, err := os.OpenFile(filepath.Join(s.dir, segName(last.id)), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("store: %w", err)
			}
			s.act, s.actID = f, last.id
			last.sealed = false
			return nil
		}
		id = last.id + 1
	}
	f, err := os.OpenFile(filepath.Join(s.dir, segName(id)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.act, s.actID = f, id
	s.segs = append(s.segs, segmentInfo{id: id})
	return nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// SetFlight attaches a flight-recorder handle; every epoch commit,
// compaction, and query is recorded with its duration (commits carry the
// epoch id, closing the cut→commit detection-delay interval).
func (s *Store) SetFlight(h flight.Handle) {
	s.mu.Lock()
	s.fl = h
	s.mu.Unlock()
}

// Healthy is the store's readiness probe: nil while the store can accept
// appends, ErrClosed after Close, and the sticky append-path error once
// the store is wedged (failed rollback or unopenable next segment).
func (s *Store) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.act == nil {
		return ErrClosed
	}
	return s.err
}

// Append persists one epoch: the flow records and table stats become one
// framed snapshot record in the active segment. Records sharing an epoch
// are legal (multi-exporter stores); queries union them with later
// appends winning per flow.
func (s *Store) Append(epoch int64, records []export.Record, stats export.TableStats) error {
	//im:allow wallclock — latency telemetry seam: append timing, not record content
	start := time.Now()
	var payload bytes.Buffer
	payload.Grow(snapOverhead + len(records)*50)
	if err := export.WriteSnapshotStats(&payload, epoch, records, stats); err != nil {
		return fmt.Errorf("store: encode epoch %d: %w", epoch, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.act == nil {
		return ErrClosed
	}
	if s.err != nil {
		return s.err
	}
	h := recordHeader{
		epoch:    epoch,
		unixNano: start.UnixNano(),
		count:    uint32(len(records)),
	}
	s.enc = appendFrame(s.enc[:0], h, payload.Bytes())
	seg := &s.segs[len(s.segs)-1]
	prevSize := seg.size
	if _, err := s.act.Write(s.enc); err != nil {
		// A partial write leaves a torn tail; roll it back so the next
		// append cannot interleave with garbage. If even that fails the
		// store is wedged and stays failed.
		if terr := s.act.Truncate(prevSize); terr != nil {
			s.err = fmt.Errorf("store: append failed (%v) and rollback failed: %w", err, terr)
			return s.err
		}
		return fmt.Errorf("store: append epoch %d: %w", epoch, err)
	}
	if s.opt.Sync == SyncEach {
		//im:allow locksafe — WAL durability seam: SyncEach promises the frame is on stable storage before Append returns, and the fsync must serialize with the write and the index update under mu
		if err := s.act.Sync(); err != nil {
			// The frame bytes are already in the file; without a rollback
			// the next append's recordRef would point at prevSize while
			// O_APPEND writes after the orphaned frame, desyncing the index
			// from disk for every subsequent epoch.
			if terr := s.act.Truncate(prevSize); terr != nil {
				s.err = fmt.Errorf("store: sync failed (%v) and rollback failed: %w", err, terr)
				return s.err
			}
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	frame := int64(len(s.enc))
	seg.size = prevSize + frame
	s.refs = append(s.refs, recordRef{
		seg:      s.actID,
		off:      prevSize,
		size:     frame,
		epoch:    epoch,
		loEpoch:  epoch,
		unixNano: h.unixNano,
		count:    h.count,
	})
	s.stats.appends++
	s.stats.appendBytes += uint64(frame)
	//im:allow wallclock — latency telemetry seam: paired with Append's start stamp
	elapsed := uint64(time.Since(start))
	if s.tm != nil {
		s.tm.appends.Inc()
		s.tm.appendBytes.Add(uint64(frame))
		s.tm.appendNanos.Observe(elapsed)
	}
	s.fl.EventAt(start, flight.StageCommit, epoch, h.count, uint64(frame), elapsed)
	if seg.size >= s.opt.SegmentBytes {
		if err := s.rollLocked(); err != nil {
			return err
		}
	}
	s.kickMaintain()
	return nil
}

// rollLocked seals the active segment and opens the next. Callers hold mu.
func (s *Store) rollLocked() error {
	//im:allow locksafe — WAL durability seam: sealing a segment must fsync before the handoff to the next file, and rolling is only atomic under mu
	if err := s.act.Sync(); err != nil {
		return fmt.Errorf("store: seal: %w", err)
	}
	if err := s.act.Close(); err != nil {
		return fmt.Errorf("store: seal: %w", err)
	}
	s.segs[len(s.segs)-1].sealed = true
	id := s.actID + 1
	f, err := os.OpenFile(filepath.Join(s.dir, segName(id)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		s.err = fmt.Errorf("store: open next segment: %w", err)
		return s.err
	}
	s.act, s.actID = f, id
	s.segs = append(s.segs, segmentInfo{id: id})
	return nil
}

// kickMaintain wakes the maintenance goroutine without blocking.
func (s *Store) kickMaintain() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.act == nil {
		return ErrClosed
	}
	//im:allow locksafe — WAL durability seam: Sync must not race a concurrent roll swapping s.act, so the fsync stays under mu by design
	return s.act.Sync()
}

// Close seals the store: the active segment is synced and closed, and the
// maintenance goroutine drained. Further appends and queries fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		return nil
	default:
	}
	close(s.closed)
	var err error
	if s.act != nil {
		//im:allow locksafe — WAL durability seam: Close seals the final segment; appends are already fenced off by the closed channel, and the last fsync must precede the file close under mu
		if serr := s.act.Sync(); serr != nil {
			err = serr
		}
		if cerr := s.act.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.act = nil
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// maintain is the background retention/compaction loop. Work is triggered
// by appends (and once at open) rather than a timer, so an idle store
// costs nothing.
func (s *Store) maintain() {
	defer s.wg.Done()
	for {
		s.retain()
		s.compact()
		select {
		case <-s.closed:
			return
		case <-s.kick:
		}
	}
}

// retain deletes the oldest sealed segments until the size, count, and
// age limits hold. The active segment is never deleted.
func (s *Store) retain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.act == nil {
		return
	}
	for len(s.segs) > 1 && s.segs[0].sealed && s.overLimitLocked() {
		victim := s.segs[0]
		if err := os.Remove(filepath.Join(s.dir, segName(victim.id))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return // disk trouble: stop retiring, try again on the next kick
		}
		s.segs = s.segs[1:]
		s.dropSegRefsLocked(victim.id)
		s.stats.retired++
		if s.tm != nil {
			s.tm.retired.Inc()
		}
	}
}

// overLimitLocked reports whether the oldest sealed segment must go.
func (s *Store) overLimitLocked() bool {
	if s.opt.MaxSegments > 0 && len(s.segs) > s.opt.MaxSegments {
		return true
	}
	if s.opt.MaxBytes > 0 {
		var total int64
		for _, seg := range s.segs {
			total += seg.size
		}
		if total > s.opt.MaxBytes {
			return true
		}
	}
	if s.opt.MaxAge > 0 {
		//im:allow wallclock — retention policy is wall-clock by contract: MaxAge ages segments against real time
		cutoff := time.Now().Add(-s.opt.MaxAge).UnixNano()
		newest := int64(0)
		for _, r := range s.refs {
			if r.seg == s.segs[0].id && r.unixNano > newest {
				newest = r.unixNano
			}
		}
		if newest > 0 && newest < cutoff {
			return true
		}
	}
	return false
}

// dropSegRefsLocked removes a deleted segment's records from the index.
func (s *Store) dropSegRefsLocked(segID int) {
	kept := s.refs[:0]
	for _, r := range s.refs {
		if r.seg != segID {
			kept = append(kept, r)
		}
	}
	s.refs = kept
}

// compact merges the oldest sealed segments into a single rollup segment
// whenever more than Options.CompactSegments sealed segments exist. The
// rollup holds one record: per-flow cumulative values at the newest epoch
// of the merged range (later epochs win per flow), so "table at epoch ≤ X"
// queries keep working over compacted history at segment granularity.
func (s *Store) compact() {
	if s.opt.CompactSegments <= 0 {
		return
	}
	// Snapshot the victims under the lock; the merge IO runs without it.
	// Sealed segments are immutable and retention runs on this same
	// goroutine, so the snapshot cannot go stale.
	s.mu.Lock()
	var sealed []segmentInfo
	for _, seg := range s.segs {
		if seg.sealed {
			sealed = append(sealed, seg)
		}
	}
	if len(sealed) <= s.opt.CompactSegments {
		s.mu.Unlock()
		return
	}
	n := len(sealed) - s.opt.CompactSegments + 1
	victims := sealed[:n]
	var victimRefs []recordRef
	for _, seg := range victims {
		for _, r := range s.refs {
			if r.seg == seg.id {
				victimRefs = append(victimRefs, r)
			}
		}
	}
	s.mu.Unlock()

	//im:allow wallclock — compaction timing seam, not record content
	start := time.Now()
	ref, size, err := s.writeRollup(victims, victimRefs)
	if err != nil {
		return // leave the originals in place; retry on the next kick
	}

	s.mu.Lock()
	// Swap the merged segments for the rollup (which reuses the oldest
	// victim's id, so ordering is preserved).
	kept := s.segs[:0]
	for _, seg := range s.segs {
		switch {
		case seg.id == ref.seg:
			kept = append(kept, segmentInfo{id: seg.id, size: size, sealed: true})
		case containsSeg(victims, seg.id):
			// dropped
		default:
			kept = append(kept, seg)
		}
	}
	s.segs = kept
	newRefs := make([]recordRef, 0, len(s.refs))
	inserted := false
	for _, r := range s.refs {
		if containsSeg(victims, r.seg) {
			if !inserted {
				newRefs = append(newRefs, ref)
				inserted = true
			}
			continue
		}
		newRefs = append(newRefs, r)
	}
	if !inserted {
		newRefs = append([]recordRef{ref}, newRefs...)
	}
	s.refs = newRefs
	s.stats.compactions++
	if s.tm != nil {
		s.tm.compactions.Inc()
	}
	fl := s.fl
	s.mu.Unlock()
	//im:allow wallclock — compaction timing seam: paired with the start stamp above
	fl.EventAt(start, flight.StageCompact, 0, uint32(len(victimRefs)), uint64(size), uint64(time.Since(start)))

	// Delete the now-superseded originals. A crash before these unlinks
	// leaves duplicates on disk; reopen tolerates that (queries are
	// last-wins per flow) and the next compaction pass cleans up.
	for _, seg := range victims[1:] {
		os.Remove(filepath.Join(s.dir, segName(seg.id)))
	}
}

func containsSeg(segs []segmentInfo, id int) bool {
	for _, s := range segs {
		if s.id == id {
			return true
		}
	}
	return false
}

// writeRollup merges the victims' records into one rollup record, written
// to a temp file and atomically renamed over the oldest victim's path.
func (s *Store) writeRollup(victims []segmentInfo, refs []recordRef) (recordRef, int64, error) {
	rows := 0
	for _, r := range refs {
		rows = max(rows, int(r.count))
	}
	var merged flowtable.Table[export.Record]
	merged.Reset(rows)
	var stats export.TableStats
	lo, hi := int64(0), int64(0)
	newestUnix := int64(0)
	sr := newSegReader(s.dir)
	var err error
	for i, r := range refs {
		// Later (newer) records win, per flow and for the cumulative stats.
		stats, err = sr.eachBurst(r, &merged, func(h uint64, rec *export.Record) {
			v, _ := merged.Upsert(h, &rec.Key)
			*v = *rec
		})
		if err != nil {
			break
		}
		if i == 0 || r.loEpoch < lo {
			lo = r.loEpoch
		}
		if r.epoch > hi {
			hi = r.epoch
		}
		if r.unixNano > newestUnix {
			newestUnix = r.unixNano
		}
	}
	if cerr := sr.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return recordRef{}, 0, err
	}
	out := make([]export.Record, 0, merged.Len())
	merged.Each(func(_ uint64, _ *packet.FlowKey, rec *export.Record) { out = append(out, *rec) })
	sort.Slice(out, func(i, j int) bool { return keyLess(&out[i].Key, &out[j].Key) })

	var payload bytes.Buffer
	// The inner snapshot's epoch carries the rollup's LOW bound; the
	// outer frame carries the high bound. innerCrossCheck enforces the
	// pairing on every read.
	if err := export.WriteSnapshotStats(&payload, lo, out, stats); err != nil {
		return recordRef{}, 0, err
	}
	h := recordHeader{flags: flagRollup, epoch: hi, unixNano: newestUnix, count: uint32(len(out))}
	frame := appendFrame(nil, h, payload.Bytes())

	id := victims[0].id
	final := filepath.Join(s.dir, segName(id))
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, frame, 0o644); err != nil {
		return recordRef{}, 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return recordRef{}, 0, err
	}
	return recordRef{
		seg:      id,
		off:      0,
		size:     int64(len(frame)),
		epoch:    hi,
		loEpoch:  lo,
		unixNano: newestUnix,
		count:    h.count,
		rollup:   true,
	}, int64(len(frame)), nil
}

// keyLess is a deterministic total order over flow keys for rollup output.
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
