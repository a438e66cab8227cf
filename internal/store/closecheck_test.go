package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// preclosedFile returns an *os.File whose Close will fail (already
// closed), standing in for a descriptor the kernel invalidated mid-query.
func preclosedFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return f
}

// Close errors from segment readers used to vanish (a bare f.Close() in a
// loop); they must surface to the caller.
func TestSegReaderCloseReportsError(t *testing.T) {
	sr := newSegReader(t.TempDir())
	sr.files[0] = preclosedFile(t)
	err := sr.close()
	if err == nil {
		t.Fatal("segReader.close() returned nil for a file whose Close fails")
	}
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("segReader.close() = %v; want os.ErrClosed", err)
	}
}

// query must propagate a segment-reader close failure even when the query
// callback itself succeeded: results read through a descriptor that could
// not close cleanly are not trustworthy.
func TestQueryPropagatesCloseError(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	defer s.Close()

	calls := 0
	err := s.query(func(refs []recordRef, sr *segReader) error {
		calls++
		sr.files[999] = preclosedFile(t)
		return nil
	})
	if err == nil {
		t.Fatal("query() swallowed the segment-reader close error")
	}
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("query() = %v; want os.ErrClosed", err)
	}
	if calls != 1 {
		t.Fatalf("query ran the callback %d times; want 1", calls)
	}
}
