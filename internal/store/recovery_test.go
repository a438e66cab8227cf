package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// copyDir clones a store directory so each cut point gets a fresh copy.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashRecovery is the acceptance case: a process killed mid-append
// leaves a partially written record; reopening must serve every fully
// written epoch with the torn tail truncated — no error, loss bounded to
// the record being written. The test simulates the kill by truncating the
// tail segment at every offset inside the final record's frame (and a few
// deep into the previous one).
func TestCrashRecovery(t *testing.T) {
	master := t.TempDir()
	s, err := Open(master, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 6
	const flows = 25
	for e := int64(1); e <= epochs; e++ {
		mustAppend(t, s, e, epochRecords(e, flows), epochStats(e))
	}
	// Frame length of the final record, to know where epoch 6 starts.
	refs, err := s.snapshotRefs()
	if err != nil {
		t.Fatal(err)
	}
	last := refs[len(refs)-1]
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := segName(last.seg)
	full := last.off + last.size

	// Cut points: every byte boundary within the last frame would make
	// this test slow; probe the structurally interesting ones plus a
	// spread of interior offsets.
	cuts := []int64{
		last.off + 1,               // just the first magic byte
		last.off + headerLen - 1,   // header torn
		last.off + headerLen,       // header complete, no payload
		last.off + headerLen + 7,   // payload torn near the front
		last.off + (last.size / 2), // payload torn mid-way
		full - 5,                   // CRC torn
		full - 1,                   // one byte short
	}
	for i := int64(1); i < last.size; i += last.size / 13 {
		cuts = append(cuts, last.off+i)
	}

	for _, cut := range cuts {
		dir := copyDir(t, master)
		if err := os.Truncate(filepath.Join(dir, segPath), cut); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut@%d: open failed: %v", cut, err)
		}
		for e := int64(1); e < epochs; e++ {
			got, stats, ok, err := s2.EpochRecords(e)
			if err != nil || !ok {
				t.Fatalf("cut@%d: epoch %d lost: ok=%v err=%v", cut, e, ok, err)
			}
			if !sameRecords(got, epochRecords(e, flows)) || stats != epochStats(e) {
				t.Fatalf("cut@%d: epoch %d corrupted", cut, e)
			}
		}
		if _, _, ok, _ := s2.EpochRecords(epochs); ok {
			t.Fatalf("cut@%d: torn final epoch served as if complete", cut)
		}
		// The recovered store accepts new appends at the truncation point.
		mustAppend(t, s2, epochs, epochRecords(epochs, flows), epochStats(epochs))
		if got, _, ok, _ := s2.EpochRecords(epochs); !ok || !sameRecords(got, epochRecords(epochs, flows)) {
			t.Fatalf("cut@%d: re-append after recovery failed", cut)
		}
		s2.Close()
	}
}

// TestBitRotLyingLengthAfterOpen corrupts a record's payloadLen in place
// while the store is open — bit rot after the open-time scan. A forged
// length inside the count-band cross-check (which has ~count·24 bytes of
// slack for v4 flows) must be caught against the indexed frame size with
// ErrChecksum rather than sliced by, and one far outside it fails the band
// with ErrFrameLength. Either way the failed read allocates under 1 MiB:
// the frame buffer is sized by the index, never by a header's claim.
func TestBitRotLyingLengthAfterOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	mustAppend(t, s, 1, epochRecords(1, 10), epochStats(1))
	refs, err := s.snapshotRefs()
	if err != nil {
		t.Fatal(err)
	}
	ref := refs[0]

	f, err := os.OpenFile(filepath.Join(dir, segName(ref.seg)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lenBuf [4]byte
	lenOff := ref.off + headerLen - 4
	if _, err := f.ReadAt(lenBuf[:], lenOff); err != nil {
		t.Fatal(err)
	}
	valid := binary.BigEndian.Uint32(lenBuf[:])
	for _, c := range []struct {
		forged uint32
		want   error
	}{
		{valid + 100, ErrChecksum},  // within the band for 10 v4 records
		{1<<32 - 1, ErrFrameLength}, // a 4 GiB claim
	} {
		binary.BigEndian.PutUint32(lenBuf[:], c.forged)
		if _, err := f.WriteAt(lenBuf[:], lenOff); err != nil {
			t.Fatal(err)
		}
		var qerr error
		grew := allocated(func() { _, _, _, qerr = s.EpochRecords(1) })
		if !errors.Is(qerr, c.want) {
			t.Fatalf("payloadLen %d: got err=%v, want %v", c.forged, qerr, c.want)
		}
		if !raceEnabled && grew > 1<<20 {
			t.Errorf("payloadLen %d: the failed read allocated %d bytes for a %d-byte frame", c.forged, grew, ref.size)
		}
	}
}

// TestCorruptionMidSegment flips a payload byte in an interior record: the
// scan must stop there (CRC), serving the prefix and dropping the rest of
// that segment rather than erroring.
func TestCorruptionMidSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(1); e <= 4; e++ {
		mustAppend(t, s, e, epochRecords(e, 10), epochStats(e))
	}
	refs, err := s.snapshotRefs()
	if err != nil {
		t.Fatal(err)
	}
	third := refs[2]
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(third.seg))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[third.off+headerLen+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over mid-segment corruption: %v", err)
	}
	defer s2.Close()
	for e := int64(1); e <= 2; e++ {
		if _, _, ok, err := s2.EpochRecords(e); !ok || err != nil {
			t.Fatalf("pre-corruption epoch %d lost: ok=%v err=%v", e, ok, err)
		}
	}
	for e := int64(3); e <= 4; e++ {
		if _, _, ok, _ := s2.EpochRecords(e); ok {
			t.Fatalf("epoch %d after corruption point served", e)
		}
	}
}
