package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"instameasure/internal/export"
	"instameasure/internal/flight"
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

// Options parameterizes a Store. The zero value is the default: no
// fsync per append.
type Options struct {
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
}

// segmentBytes seals the active segment once it reaches this size.
const segmentBytes = 64 << 20

// segmentInfo is the in-memory state of one segment file.
type segmentInfo struct {
	id   int
	size int64
}

// Store is an append-only epoch history: segmented log files and an
// in-memory record index built by scanning on open. Nothing is ever
// rewritten or deleted, so the index a query starts from stays valid for
// as long as it reads. Append and the query methods are safe for
// concurrent use.
type Store struct {
	dir      string
	opt      Options
	segBytes int64 // segmentBytes; in-package tests shrink it to roll segments

	mu    sync.Mutex
	segs  []segmentInfo // ascending id; the last is active
	refs  []recordRef   // append order within each segment, segments ascending
	act   *os.File      // active segment, opened for append; nil once closed
	actID int
	err   error // sticky append-path failure
	stats storeCounters

	tm *storeMetrics // nil until Instrument
	fl flight.Handle
}

// storeCounters tracks store activity for StoreStats and telemetry.
type storeCounters struct {
	appends      uint64
	appendBytes  uint64
	appendErrors uint64 // Append calls that returned an error
	truncations  uint64 // torn tails recovered on open
}

// ErrClosed is returned by appends and queries after Close.
var ErrClosed = errors.New("store: closed")

// Open opens (creating if needed) the store at dir. Every existing
// segment is scanned and any torn tail truncated before the store is
// usable. A segment holding a rollup record (written by compaction in
// earlier versions) fails the open, naming the segment, and nothing on
// disk is changed.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opt: opt, segBytes: segmentBytes}
	if err := s.scanDir(); err != nil {
		return nil, err
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	return s, nil
}

// scanDir indexes every segment file, then truncates torn tails — only
// once every segment has scanned, so a refused store is left untouched.
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
	var torn []segmentInfo
	for _, id := range ids {
		path := filepath.Join(s.dir, segName(id))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		refs, validLen, err := parseSegment(id, data)
		if err != nil {
			return fmt.Errorf("%w: %s, offset %d", err, path, validLen)
		}
		if validLen < int64(len(data)) {
			torn = append(torn, segmentInfo{id: id, size: validLen})
		}
		s.segs = append(s.segs, segmentInfo{id: id, size: validLen})
		s.refs = append(s.refs, refs...)
	}
	for _, seg := range torn {
		path := filepath.Join(s.dir, segName(seg.id))
		if err := os.Truncate(path, seg.size); err != nil {
			return fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
		}
		s.stats.truncations++
	}
	return nil
}

// openActive opens the segment appends go to: the newest existing segment
// if it still has room, a fresh one otherwise.
func (s *Store) openActive() error {
	id := 1
	if n := len(s.segs); n > 0 {
		last := s.segs[n-1]
		if last.size < s.segBytes {
			f, err := os.OpenFile(filepath.Join(s.dir, segName(last.id)), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("store: %w", err)
			}
			s.act, s.actID = f, last.id
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

// SetFlight attaches a flight-recorder handle; every epoch commit and
// query is recorded with its duration (commits carry the epoch id,
// closing the cut→commit detection-delay interval).
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
// appends winning per flow. Every call that returns an error is counted
// in StoreStats.AppendErrors. Append is Begin, a Put per record, and
// Commit.
func (s *Store) Append(epoch int64, records []export.Record, stats export.TableStats) error {
	var f Frame
	s.Begin(&f, epoch, len(records))
	for i := range records {
		f.Put(&records[i])
	}
	return s.Commit(&f, stats)
}

// Frame is one epoch append being encoded: Begin starts it in a pooled
// buffer, the caller Puts each flow record into the embedded Encoder —
// a meter's cut straight from its walk — and Commit ends it and writes it.
type Frame struct {
	export.Encoder
	epoch int64
	start time.Time
	buf   *[]byte
}

// Begin starts epoch's append in f, sized for about hint records.
func (s *Store) Begin(f *Frame, epoch int64, hint int) {
	f.epoch, f.start, f.buf = epoch, time.Now(), framePool.Get().(*[]byte)
	f.BeginSnapshot(appendHeader((*f.buf)[:0], recordHeader{epoch: epoch}), epoch, hint)
}

// Commit ends f's frame with stats as its trailer and appends it, as
// Append does. Frames encode in parallel, outside mu; Commit holds it to
// write and index.
func (s *Store) Commit(f *Frame, stats export.TableStats) error {
	defer framePool.Put(f.buf) // after the deferred unlock: the write is done
	var err error
	*f.buf, err = endFrame(&f.Encoder, 0, stats)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("store: encode epoch %d: %w", f.epoch, err)
	} else {
		err = s.appendLocked(f.start, f.epoch, uint32(f.Count()), *f.buf)
	}
	if err != nil {
		s.stats.appendErrors++
		if s.tm != nil {
			s.tm.appendErrors.Inc()
		}
	}
	return err
}

// framePool holds the frame buffers appends encode into.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// appendLocked writes one encoded frame and indexes it. Callers hold mu.
func (s *Store) appendLocked(start time.Time, epoch int64, count uint32, enc []byte) error {
	if s.act == nil {
		return ErrClosed
	}
	if s.err != nil {
		return s.err
	}
	seg := &s.segs[len(s.segs)-1]
	prevSize := seg.size
	if _, err := s.act.Write(enc); err != nil {
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
	frame := int64(len(enc))
	seg.size = prevSize + frame
	s.refs = append(s.refs, recordRef{
		seg:   s.actID,
		off:   prevSize,
		size:  frame,
		epoch: epoch,
		count: count,
	})
	s.stats.appends++
	s.stats.appendBytes += uint64(frame)
	elapsed := uint64(time.Since(start))
	if s.tm != nil {
		s.tm.appends.Inc()
		s.tm.appendBytes.Add(uint64(frame))
		s.tm.appendNanos.Observe(elapsed)
	}
	s.fl.EventAt(start, flight.StageCommit, epoch, count, uint64(frame), elapsed)
	if seg.size >= s.segBytes {
		return s.rollLocked()
	}
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

// Close seals the store: the active segment is synced and closed.
// Further appends and queries fail with ErrClosed; closing again is a
// no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.act == nil {
		return nil
	}
	//im:allow locksafe — WAL durability seam: Close seals the final segment; the last fsync must precede the file close under mu, and clearing act fences off later appends
	err := s.act.Sync()
	if cerr := s.act.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.act = nil
	return err
}
