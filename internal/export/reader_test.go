package export

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"runtime/debug"
	"testing"
)

// mixedRecords is n distinct records, every seventh a v6 flow.
func mixedRecords(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = rec(i + 1)
		if i%7 == 3 {
			out[i].Key = seedKeyV6()
			out[i].Key.SrcIP[8] = byte(i)
			out[i].Key.SrcPort = uint16(i)
		}
	}
	return out
}

func encodeBatch(tb testing.TB, b Batch) []byte {
	tb.Helper()
	frame, err := AppendBatch(nil, b)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// TestBatchReaderReuse: a reader that has read a long frame returns
// exactly a following shorter frame's records, with nothing left over
// from the first, and the first's site does not stick to a v1 frame.
func TestBatchReaderReuse(t *testing.T) {
	long := Batch{Epoch: 1, Site: "edge-1", Records: mixedRecords(5000)}
	short := Batch{Epoch: 2, Records: []Record{rec(90001), rec(90002), rec(90003)}}
	stream := append(encodeBatch(t, long), encodeBatch(t, short)...)

	var br BatchReader
	r := bytes.NewReader(stream)
	for _, want := range []Batch{long, short} {
		got, err := br.Read(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != want.Epoch || got.Site != want.Site || len(got.Records) != len(want.Records) {
			t.Fatalf("epoch %d site %q %d records, want epoch %d site %q %d records",
				got.Epoch, got.Site, len(got.Records), want.Epoch, want.Site, len(want.Records))
		}
		for i := range want.Records {
			if got.Records[i] != want.Records[i] {
				t.Fatalf("epoch %d record %d: %+v, want %+v", want.Epoch, i, got.Records[i], want.Records[i])
			}
		}
	}
	if _, err := br.Read(r); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestBatchReaderLyingHeaderAfterLargeFrame: a header claiming far more
// payload than the stream delivers fails with io.ErrUnexpectedEOF, and a
// reader warmed by a large frame, fed more than the capacity it held, grows
// by one step — doubling, never to the claimed length: memory tracks the
// bytes delivered, not the header's claim.
func TestBatchReaderLyingHeaderAfterLargeFrame(t *testing.T) {
	var br BatchReader
	if _, err := br.Read(bytes.NewReader(encodeBatch(t, Batch{Epoch: 1, Records: mixedRecords(20000)}))); err != nil {
		t.Fatal(err)
	}
	held := cap(br.body)

	count := uint32(1 << 21)
	lie := binary.BigEndian.AppendUint32(nil, batchMagic)
	lie = append(lie, version)
	lie = binary.BigEndian.AppendUint64(lie, 2)
	lie = binary.BigEndian.AppendUint32(lie, count)
	lie = binary.BigEndian.AppendUint32(lie, count*recordMinBytes) // ~96 MB claimed
	lie = append(lie, make([]byte, held+held/2)...)                // past the held buffer: one growth step

	if _, err := br.Read(bytes.NewReader(lie)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("lying header: %v, want io.ErrUnexpectedEOF", err)
	}
	if c, limit := cap(br.body), held+max(readChunk, held); c <= held || c > limit {
		t.Fatalf("payload buffer went from %d to %d bytes on a lying header; one growth step is (%d, %d]", held, c, held, limit)
	}
}

// allocsPerRun measures f warm: testing.AllocsPerRun's allocation count,
// and the bytes allocated per run. The collector is off and there is one
// P throughout, warm-up included, so what f pools stays in the pool f
// reads next.
func allocsPerRun(runs int, f func()) (allocs float64, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(runs+1)
}

// TestCodecAllocsDoNotScale pins the codec's buffer reuse: a warm
// BatchReader.Read and a WriteBatch to io.Discard allocate the same small
// count at 1 000 and at 40 000 records, and bytes that do not grow with
// the records.
func TestCodecAllocsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need the race detector off")
	}
	const maxBytes = 1 << 10
	for _, n := range []int{1000, 40000} {
		b := Batch{Epoch: 3, Site: "edge-1", Records: mixedRecords(n)}
		frame := encodeBatch(t, b)
		var br BatchReader
		r := bytes.NewReader(frame)
		readAllocs, readBytes := allocsPerRun(20, func() {
			r.Reset(frame)
			if _, err := br.Read(r); err != nil {
				t.Fatal(err)
			}
		})
		writeAllocs, writeBytes := allocsPerRun(20, func() {
			if err := WriteBatch(io.Discard, b); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d records: Read %.0f allocs %d B, WriteBatch %.0f allocs %d B", n, readAllocs, readBytes, writeAllocs, writeBytes)
		if readAllocs != 0 || readBytes > maxBytes {
			t.Errorf("%d records: warm BatchReader.Read allocates %.0f times, %d B per frame; want 0 and at most %d B", n, readAllocs, readBytes, maxBytes)
		}
		if writeAllocs != 0 || writeBytes > maxBytes {
			t.Errorf("%d records: WriteBatch allocates %.0f times, %d B per frame; want 0 and at most %d B", n, writeAllocs, writeBytes, maxBytes)
		}
	}
}
