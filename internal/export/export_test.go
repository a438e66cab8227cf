package export

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"instameasure/internal/packet"
	"instameasure/internal/wsaf"
)

func rec(i int) Record {
	return Record{
		Key:        packet.V4Key(uint32(i), uint32(i)+5, uint16(i%60000)+1, 443, packet.ProtoTCP),
		Pkts:       float64(i) * 1.5,
		Bytes:      float64(i) * 900.25,
		FirstSeen:  int64(i) * 10,
		LastUpdate: int64(i)*10 + 5,
	}
}

// writeSnapshot writes a snapshot without the stats trailer, as files
// written before the trailer existed end.
func writeSnapshot(w io.Writer, epoch int64, records []Record) error {
	frame, err := AppendBatch(binary.BigEndian.AppendUint32(nil, snapshotMagic), Batch{Epoch: epoch, Records: records})
	if err == nil {
		_, err = w.Write(frame)
	}
	return err
}

func TestBatchRoundTrip(t *testing.T) {
	b := Batch{Epoch: 42}
	for i := 0; i < 100; i++ {
		b.Records = append(b.Records, rec(i))
	}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 42 || len(got.Records) != 100 {
		t.Fatalf("batch = epoch %d, %d records", got.Epoch, len(got.Records))
	}
	for i := range got.Records {
		if got.Records[i] != b.Records[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got.Records[i], b.Records[i])
		}
	}
	if _, err := ReadBatch(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("stream end err = %v, want EOF", err)
	}
}

func TestBatchRoundTripV6(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := Batch{Epoch: 7}
	for i := 0; i < 20; i++ {
		var r Record
		r.Key.IsV6 = true
		rng.Read(r.Key.SrcIP[:])
		rng.Read(r.Key.DstIP[:])
		r.Key.SrcPort = uint16(rng.Intn(65536))
		r.Key.DstPort = uint16(rng.Intn(65536))
		r.Key.Proto = packet.ProtoUDP
		r.Pkts = rng.Float64() * 1e6
		r.Bytes = rng.Float64() * 1e9
		b.Records = append(b.Records, r)
	}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Records {
		if got.Records[i] != b.Records[i] {
			t.Fatalf("v6 record %d mismatch", i)
		}
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, pkts, bytes float64, first, last int64) bool {
		r := Record{
			Key:        packet.V4Key(src, dst, sp, dp, packet.ProtoTCP),
			Pkts:       pkts,
			Bytes:      bytes,
			FirstSeen:  first,
			LastUpdate: last,
		}
		buf := make([]byte, recordMaxBytes)
		buf = buf[:putRecord(buf, &r)]
		got := Record{Key: seedKeyV6()} // stale v6 bytes the decode must overwrite
		rest, err := decodeRecord(&got, buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		// NaN never compares equal; skip those draws.
		if pkts != pkts || bytes != bytes {
			return true
		}
		return got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, Batch{Epoch: 1, Records: []Record{rec(1), rec(2)}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[25] ^= 0xFF // flip a payload byte
	if _, err := ReadBatch(bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) {
		t.Errorf("err = %v, want ErrChecksum", err)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := ReadBatch(bytes.NewReader(make([]byte, 21))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic err = %v", err)
	}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, Batch{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // version
	if _, err := ReadBatch(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version err = %v", err)
	}
}

func TestOversizedRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, Batch{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[13], raw[14], raw[15], raw[16] = 0xFF, 0xFF, 0xFF, 0xFF // count
	if _, err := ReadBatch(bytes.NewReader(raw)); !errors.Is(err, ErrOversized) {
		t.Errorf("err = %v, want ErrOversized", err)
	}
}

func TestTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, Batch{Epoch: 1, Records: []Record{rec(5)}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadBatch(bytes.NewReader(raw[:len(raw)-8])); err == nil {
		t.Error("truncated batch must fail")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	records := []Record{rec(1), rec(2), rec(3)}
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, 99, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 99 || len(got.Records) != 3 {
		t.Fatalf("snapshot = %+v", got)
	}
	if _, err := ReadSnapshot(bytes.NewReader(make([]byte, 30))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("snapshot magic err = %v", err)
	}
}

func TestFromEntry(t *testing.T) {
	e := wsaf.Entry{
		Key:        packet.V4Key(1, 2, 3, 4, packet.ProtoUDP),
		Pkts:       10,
		Bytes:      1000,
		FirstSeen:  5,
		LastUpdate: 9,
	}
	r := FromEntry(e)
	if r.Key != e.Key || r.Pkts != 10 || r.Bytes != 1000 || r.FirstSeen != 5 || r.LastUpdate != 9 {
		t.Errorf("FromEntry = %+v", r)
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	var mu sync.Mutex
	var epochs []int64
	var merged Merge
	coll, err := NewCollector("127.0.0.1:0", func(b Batch) {
		merged.Add(b)
		mu.Lock()
		epochs = append(epochs, b.Epoch)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()

	exp, err := Dial(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	// Two epochs; flow 1 appears in both and must accumulate.
	if err := exp.Export(Batch{Epoch: 1, Records: []Record{rec(1), rec(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := exp.Export(Batch{Epoch: 2, Records: []Record{rec(1)}}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, func() bool {
		b, _ := coll.Stats()
		return b == 2
	})

	r1 := rec(1)
	got, ok := merged.Lookup(r1.Key)
	if !ok {
		t.Fatal("flow 1 missing at collector")
	}
	if got.Pkts != 2*r1.Pkts || got.Bytes != 2*r1.Bytes {
		t.Errorf("merged = %v/%v, want doubled %v/%v", got.Pkts, got.Bytes, 2*r1.Pkts, 2*r1.Bytes)
	}
	if n := len(merged.Flows()); n != 2 {
		t.Errorf("merged flows = %d, want 2", n)
	}
	mu.Lock()
	gotEpochs := append([]int64(nil), epochs...)
	mu.Unlock()
	if len(gotEpochs) != 2 || gotEpochs[0] != 1 || gotEpochs[1] != 2 {
		t.Errorf("epochs = %v", gotEpochs)
	}
}

func TestCollectorMultipleExporters(t *testing.T) {
	var merged Merge
	coll, err := NewCollector("127.0.0.1:0", merged.Add)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()

	const exporters = 4
	var wg sync.WaitGroup
	for i := 0; i < exporters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			exp, err := Dial(coll.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer exp.Close()
			if err := exp.Export(Batch{
				Epoch:   int64(i),
				Records: []Record{rec(100 + i)},
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	waitFor(t, func() bool {
		_, n := coll.Stats()
		return n == exporters
	})
	if n := len(merged.Flows()); n != exporters {
		t.Errorf("flows = %d, want %d", n, exporters)
	}
}

func TestCollectorCloseUnblocksConnections(t *testing.T) {
	coll, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := Dial(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.Export(Batch{Epoch: 1, Records: []Record{rec(1)}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		b, _ := coll.Stats()
		return b == 1
	})

	done := make(chan error, 1)
	go func() { done <- coll.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an open exporter connection")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
