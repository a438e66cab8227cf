package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"instameasure/internal/export"
	"instameasure/internal/packet"
)

// rec builds a deterministic flow record from a small id.
func rec(id int) export.Record {
	return export.Record{
		Key:        packet.V4Key(0x0a000000+uint32(id), 0xc0a80001, uint16(1000+id), 443, packet.ProtoTCP),
		Pkts:       float64(10 * id),
		Bytes:      float64(1500 * id),
		FirstSeen:  int64(id),
		LastUpdate: int64(100 + id),
	}
}

// epochRecords builds an epoch's table: flows 1..n with counters scaled by
// the epoch (cumulative counters grow epoch over epoch, like the WSAF's).
func epochRecords(epoch int64, n int) []export.Record {
	out := make([]export.Record, n)
	for i := range out {
		out[i] = rec(i + 1)
		out[i].Pkts *= float64(epoch)
		out[i].Bytes *= float64(epoch)
		out[i].LastUpdate = epoch * 1_000_000
	}
	return out
}

func epochStats(epoch int64) export.TableStats {
	return export.TableStats{Updates: uint64(epoch) * 100, Inserts: uint64(epoch)}
}

func openTestStore(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustAppend(t *testing.T, s *Store, epoch int64, recs []export.Record, stats export.TableStats) {
	t.Helper()
	if err := s.Append(epoch, recs, stats); err != nil {
		t.Fatalf("append epoch %d: %v", epoch, err)
	}
}

func sameRecords(a, b []export.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key ||
			math.Float64bits(a[i].Pkts) != math.Float64bits(b[i].Pkts) ||
			math.Float64bits(a[i].Bytes) != math.Float64bits(b[i].Bytes) ||
			a[i].FirstSeen != b[i].FirstSeen || a[i].LastUpdate != b[i].LastUpdate {
			return false
		}
	}
	return true
}

// TestFrameBoundsMatchExportCodec pins the outer frame's length
// cross-check constants against the real export encoder: if the snapshot
// framing or record encoding ever changes size, this fails before any
// stored data silently stops validating.
func TestFrameBoundsMatchExportCodec(t *testing.T) {
	var empty bytes.Buffer
	if err := export.WriteSnapshotStats(&empty, 1, nil, export.TableStats{}); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != snapOverhead {
		t.Fatalf("snapshot overhead is %d bytes, constant says %d", empty.Len(), snapOverhead)
	}

	var one bytes.Buffer
	v4 := rec(1)
	if err := export.WriteSnapshotStats(&one, 1, []export.Record{v4}, export.TableStats{}); err != nil {
		t.Fatal(err)
	}
	if got := one.Len() - snapOverhead; got != recordMinBytes {
		t.Fatalf("encoded v4 record is %d bytes, recordMinBytes says %d", got, recordMinBytes)
	}

	v6 := v4
	v6.Key.IsV6 = true
	var six bytes.Buffer
	if err := export.WriteSnapshotStats(&six, 1, []export.Record{v6}, export.TableStats{}); err != nil {
		t.Fatal(err)
	}
	if got := six.Len() - snapOverhead; got != recordMaxBytes {
		t.Fatalf("encoded v6 record is %d bytes, recordMaxBytes says %d", got, recordMaxBytes)
	}
}

// TestHeaderBoundsRejected: an outer header whose count is over the
// record limit, or whose payload length falls outside the band its count
// allows, is ErrFrameLength before a payload byte is read — whatever the
// file goes on to hold. Each case is one bound.
func TestHeaderBoundsRejected(t *testing.T) {
	hdr := func(count, payloadLen uint32) []byte {
		b := appendHeader(nil, recordHeader{epoch: 1, count: count})
		binary.BigEndian.PutUint32(b[headerLen-4:], payloadLen)
		return b
	}
	const over = maxRecords + 1
	for _, tc := range []struct {
		name              string
		count, payloadLen uint32
	}{
		{"count over maxRecords", over, snapOverhead + over*recordMinBytes},
		{"payload below count·recordMinBytes", 3, snapOverhead + 3*recordMinBytes - 1},
		{"payload above count·recordMaxBytes", 3, snapOverhead + 3*recordMaxBytes + 1},
	} {
		if _, err := parseHeader(hdr(tc.count, tc.payloadLen)); !errors.Is(err, ErrFrameLength) {
			t.Errorf("%s: err = %v, want ErrFrameLength", tc.name, err)
		}
	}
	if _, err := parseHeader(hdr(3, snapOverhead+3*recordMinBytes)); err != nil {
		t.Errorf("payload at the band's edge: %v", err)
	}
	if err := innerCrossCheck(recordHeader{}, make([]byte, snapOverhead-1)); err == nil {
		t.Error("innerCrossCheck accepted a payload shorter than a snapshot")
	}
}

// TestOuterInnerDisagreementStopsScan: a frame whose outer epoch or count
// disagrees with the snapshot it carries — CRC intact, count still in the
// length band — ends the open-time scan there, like any corrupt frame.
func TestOuterInnerDisagreementStopsScan(t *testing.T) {
	for _, tc := range []struct {
		name  string
		patch func(frame []byte)
	}{
		{"outer epoch", func(f []byte) { binary.BigEndian.PutUint64(f[6:14], 7) }},
		{"outer count", func(f []byte) { binary.BigEndian.PutUint32(f[22:26], 2) }},
	} {
		seg := buildSegment(t, 2)
		tc.patch(seg)
		if _, err := parseHeader(seg); err != nil {
			t.Fatalf("%s: the patched header must pass its own checks: %v", tc.name, err)
		}
		refs, validLen, err := parseSegment(1, seg)
		if err != nil || len(refs) != 0 || validLen != 0 {
			t.Errorf("%s: scan indexed %d frames, %d valid bytes, err %v; want it to stop at the first frame", tc.name, len(refs), validLen, err)
		}
	}
}

// TestAppendReadBack round-trips epochs through close and reopen: every
// appended table reads back bit-identically, stats trailer included.
func TestAppendReadBack(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	const epochs = 5
	for e := int64(1); e <= epochs; e++ {
		mustAppend(t, s, e, epochRecords(e, 50), epochStats(e))
	}
	check := func(s *Store) {
		t.Helper()
		for e := int64(1); e <= epochs; e++ {
			got, stats, ok, err := s.EpochRecords(e)
			if err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
			if !ok {
				t.Fatalf("epoch %d missing", e)
			}
			if !sameRecords(got, epochRecords(e, 50)) {
				t.Fatalf("epoch %d records changed in round trip", e)
			}
			if stats != epochStats(e) {
				t.Fatalf("epoch %d stats %+v != %+v", e, stats, epochStats(e))
			}
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, Options{})
	check(s2)
	// The reopened store keeps appending where it left off.
	mustAppend(t, s2, epochs+1, epochRecords(epochs+1, 50), epochStats(epochs+1))
	if _, _, ok, _ := s2.EpochRecords(epochs + 1); !ok {
		t.Fatal("append after reopen not visible")
	}
}

// TestAppendAllocsDoNotScale: Append encodes each epoch into a pooled
// buffer, so a warm Append allocates the same small count at 1 000 and at
// 40 000 records, and bytes that do not grow with the records.
func TestAppendAllocsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need the race detector off")
	}
	// A GC would empty the pool, and so would a move to another P
	// between the warm-up and the measured runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs, maxBytes = 20, 1 << 10
	s := openTestStore(t, t.TempDir(), Options{})
	epoch := int64(0)
	for _, n := range []int{1000, 40000} {
		recs := epochRecords(1, n)
		appendOne := func() {
			epoch++
			mustAppend(t, s, epoch, recs, epochStats(epoch))
		}
		appendOne()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, appendOne)
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		t.Logf("%d records: %.0f allocs, %d B per Append", n, allocs, perRun)
		if allocs != 0 || perRun > maxBytes {
			t.Errorf("%d records: a warm Append allocates %.0f times, %d B; want 0 and at most %d B", n, allocs, perRun, maxBytes)
		}
	}
}

// TestSegmentRolling drives the store past its segment size so appends
// span several files, and verifies the index covers them all.
func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	s.segBytes = 4 << 10
	const epochs = 20
	for e := int64(1); e <= epochs; e++ {
		mustAppend(t, s, e, epochRecords(e, 20), epochStats(e))
	}
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected several segments, got %d", st.Segments)
	}
	if got := s.Epochs(); len(got) != epochs {
		t.Fatalf("expected %d epochs, got %d", epochs, len(got))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, Options{})
	if got := s2.Epochs(); len(got) != epochs {
		t.Fatalf("after reopen: expected %d epochs, got %d", epochs, len(got))
	}
}

// TestSegmentsByteIdenticalAcrossRuns: a segment is a function of the
// appends alone. Two fresh stores fed the same epochs, across several
// segment rolls, hold the same files byte for byte, so no host clock or
// other run-to-run state leaks into what is written.
func TestSegmentsByteIdenticalAcrossRuns(t *testing.T) {
	run := func() string {
		dir := t.TempDir()
		s := openTestStore(t, dir, Options{})
		s.segBytes = 4 << 10
		for e := int64(1); e <= 12; e++ {
			mustAppend(t, s, e, epochRecords(e, 20), epochStats(e))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	a, b := run(), run()
	entries, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	if other, err := os.ReadDir(b); err != nil || len(other) != len(entries) || len(entries) < 3 {
		t.Fatalf("segment files: %d and %d (%v); want the same count, at least 3", len(entries), len(other), err)
	}
	for _, e := range entries {
		x, errA := os.ReadFile(filepath.Join(a, e.Name()))
		y, errB := os.ReadFile(filepath.Join(b, e.Name()))
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v, %v", e.Name(), errA, errB)
		}
		if len(x) != len(y) {
			t.Fatalf("%s: %d bytes and %d bytes", e.Name(), len(x), len(y))
		}
		diff := 0
		for i := range x {
			if x[i] != y[i] {
				diff++
			}
		}
		if diff != 0 {
			t.Errorf("%s: %d of %d bytes differ between two runs of the same appends", e.Name(), diff, len(x))
		}
	}
}

// TestOpenStartsNoGoroutine: the store does all its work on its callers'
// goroutines, so opening one (over existing segments too) leaves the
// goroutine count where it was.
func TestOpenStartsNoGoroutine(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	mustAppend(t, s, 1, epochRecords(1, 5), epochStats(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	s2 := openTestStore(t, dir, Options{})
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("Open went from %d goroutines to %d", before, after)
	}
	mustAppend(t, s2, 2, epochRecords(2, 5), epochStats(2))
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("Append went from %d goroutines to %d", before, after)
	}
}

// withRollup returns a copy of a two-frame segment whose second frame
// carries the rollup flag, as compaction in earlier versions wrote it.
func withRollup(tb testing.TB, seg []byte) []byte {
	tb.Helper()
	refs, _, err := parseSegment(1, seg)
	if err != nil || len(refs) != 2 {
		tb.Fatalf("want a two-frame segment, got %d frames (%v)", len(refs), err)
	}
	out := bytes.Clone(seg)
	out[refs[1].off+5] = flagRollup
	return out
}

// TestRollupSegmentRefused: a store holding a rollup record is refused
// with an error naming the segment, and Open changes no byte on disk — not
// the rollup's segment, which must never be truncated as a torn tail, and
// not a torn tail elsewhere either.
func TestRollupSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	torn := append(buildSegment(t, 1), "IMR1 torn"...)
	rolled := append(withRollup(t, buildSegment(t, 2)), "after the rollup"...)
	files := map[string][]byte{segName(1): torn, segName(2): rolled}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, Options{})
	if err == nil {
		s.Close()
		t.Fatal("Open indexed a store holding a rollup record")
	}
	if !errors.Is(err, ErrRollup) || !strings.Contains(err.Error(), segName(2)) {
		t.Fatalf("Open error %q: want ErrRollup naming %s", err, segName(2))
	}
	for name, data := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s changed by a refused Open: %d bytes, was %d", name, len(got), len(data))
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != len(files) {
		t.Fatalf("refused Open left %d files, want %d", len(entries), len(files))
	}
}

// TestAppendAfterCloseFails pins the ErrClosed contract.
func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	mustAppend(t, s, 1, epochRecords(1, 3), epochStats(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(2, epochRecords(2, 3), epochStats(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if got := s.Stats().AppendErrors; got != 1 {
		t.Fatalf("AppendErrors = %d after one failed append, want 1", got)
	}
	if _, err := s.TopK(Window{}, 1, false); err == nil {
		t.Fatal("query after close succeeded")
	}
}

// TestSyncFailureDoesNotDesyncIndex swaps the active segment for a pipe:
// writes land (buffered) but fsync fails with EINVAL, driving the
// SyncEach failure path. The frame bytes are already "in the file", so
// the append must either roll them back or — when the rollback also
// fails, as it does on a pipe — wedge the store with a sticky error. What
// it must never do is return an error while leaving the orphaned frame in
// place with the index unaware of it: every later append would then be
// recorded at the wrong offset.
func TestSyncFailureDoesNotDesyncIndex(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{Sync: SyncEach})
	mustAppend(t, s, 1, epochRecords(1, 5), epochStats(1))

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	s.mu.Lock()
	realAct := s.act
	s.act = w
	s.mu.Unlock()

	if err := s.Append(2, epochRecords(2, 5), epochStats(2)); err == nil {
		t.Fatal("append with failing sync succeeded")
	}
	s.mu.Lock()
	sticky := s.err
	nrefs := len(s.refs)
	s.act = realAct
	s.mu.Unlock()
	if sticky == nil {
		t.Fatal("failed sync + failed rollback did not wedge the store")
	}
	if nrefs != 1 {
		t.Fatalf("index grew to %d refs despite failed sync", nrefs)
	}
	if err := s.Append(3, epochRecords(3, 5), epochStats(3)); err == nil {
		t.Fatal("append after wedge succeeded")
	}
	if got := s.Stats().AppendErrors; got != 2 {
		t.Fatalf("AppendErrors = %d after the failed sync and the wedged append, want 2", got)
	}
}

// TestSameEpochUnion verifies multi-exporter semantics: records sharing
// an epoch union per flow, later appends winning.
func TestSameEpochUnion(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	a := []export.Record{rec(1), rec(2)}
	b := []export.Record{rec(3)}
	override := rec(1)
	override.Pkts = 999
	c := []export.Record{override}
	mustAppend(t, s, 7, a, export.TableStats{})
	mustAppend(t, s, 7, b, export.TableStats{})
	mustAppend(t, s, 7, c, export.TableStats{})
	top, err := s.TopK(Window{From: 7, To: 7}, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("union of same-epoch appends has %d flows, want 3", len(top))
	}
	if top[0].Pkts != 999 {
		t.Fatalf("later append did not win: %+v", top[0])
	}
}

// TestTornTailTruncatedOnOpen writes garbage after valid records and
// checks open truncates it and keeps appending cleanly.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	mustAppend(t, s, 1, epochRecords(1, 10), epochStats(1))
	mustAppend(t, s, 2, epochRecords(2, 10), epochStats(2))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("IMR1 partial garbage that looks like a header start")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTestStore(t, dir, Options{})
	if got := s2.Stats().Truncations; got != 1 {
		t.Fatalf("expected 1 truncation, got %d", got)
	}
	for e := int64(1); e <= 2; e++ {
		if _, _, ok, err := s2.EpochRecords(e); !ok || err != nil {
			t.Fatalf("epoch %d lost to truncation: ok=%v err=%v", e, ok, err)
		}
	}
	mustAppend(t, s2, 3, epochRecords(3, 10), epochStats(3))
	if _, _, ok, _ := s2.EpochRecords(3); !ok {
		t.Fatal("append after truncation not visible")
	}
}
