package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"instameasure/internal/packet"
	"instameasure/internal/pcap"
)

// readAll reads src to its terminating error, cycling through the buffer
// sizes given (a burst of 1024 if none), and returns what it delivered, in
// order, and that error. broken reports the first read that breaks the
// Source contract: packets with an error, more packets than slots, or
// none and no error from a buffer with room.
func readAll(src Source, sizes []int) (pkts []packet.Packet, end, broken error) {
	if len(sizes) == 0 {
		sizes = []int{1024}
	}
	buf := make([]packet.Packet, slices.Max(sizes))
	for i := 0; ; i++ {
		sz := sizes[i%len(sizes)]
		n, err := src.NextBatch(buf[:sz])
		switch {
		case n < 0 || n > sz || (n > 0 && err != nil) || (n == 0 && err == nil && sz > 0):
			return pkts, err, fmt.Errorf("NextBatch with %d slots returned n=%d err=%v", sz, n, err)
		case err != nil:
			return pkts, err, nil
		}
		pkts = append(pkts, buf[:n]...)
	}
}

// drain is readAll for a source that must keep the contract and end in
// io.EOF.
func drain(t testing.TB, src Source, sizes ...int) []packet.Packet {
	t.Helper()
	pkts, end, broken := readAll(src, sizes)
	if broken != nil {
		t.Fatal(broken)
	}
	if !errors.Is(end, io.EOF) {
		t.Fatalf("source ended with %v, want EOF", end)
	}
	return pkts
}

func TestSliceSourceNextBatch(t *testing.T) {
	var pkts []packet.Packet
	for i := 0; i < 1000; i++ {
		pkts = append(pkts, mkPkt(i%37, 100, int64(i)))
	}
	tr := NewTrace(pkts)

	for _, bufSize := range []int{1, 7, 256, 999, 1000, 4096} {
		src := tr.Source()
		got := drain(t, src, bufSize)
		if len(got) != len(tr.Packets) {
			t.Fatalf("bufSize %d: read %d packets, want %d", bufSize, len(got), len(tr.Packets))
		}
		for i := range got {
			if got[i] != tr.Packets[i] {
				t.Fatalf("bufSize %d: packet %d mismatch", bufSize, i)
			}
		}
		// Exhausted source keeps returning EOF.
		if n, err := src.NextBatch(make([]packet.Packet, 4)); n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("bufSize %d: after EOF got n=%d err=%v", bufSize, n, err)
		}
	}
}

func TestPcapSourceNextBatch(t *testing.T) {
	tr, err := GenerateZipf(ZipfConfig{Flows: 40, TotalPackets: 530, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf, 0); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 530 packets through 64-packet batches: a block's last packets and
	// the capture's tail are short reads with nil error, EOF arrives on the
	// call after.
	src := NewPcapSource(r)
	got := drain(t, src, 64)
	if len(got) != len(tr.Packets) {
		t.Fatalf("read %d packets, want %d", len(got), len(tr.Packets))
	}
	for i := range got {
		if got[i].Key != tr.Packets[i].Key || got[i].TS != tr.Packets[i].TS {
			t.Fatalf("packet %d mismatch", i)
		}
	}
}

func TestPcapSourceDeferredErrorDelivery(t *testing.T) {
	// Truncate a capture mid-frame: NextBatch must deliver the packets
	// before the torn record with a nil error and surface the failure on
	// the next read, never both at once.
	tr, err := GenerateZipf(ZipfConfig{Flows: 10, TotalPackets: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	r, err := pcap.NewReader(bytes.NewReader(raw[:len(raw)-7]))
	if err != nil {
		t.Fatal(err)
	}
	src := NewPcapSource(r)
	batch := make([]packet.Packet, 4096)
	n, err := src.NextBatch(batch)
	if err != nil {
		t.Fatalf("first NextBatch: n=%d err=%v; the error must wait for the read after the packets", n, err)
	}
	if n == 0 || n >= len(tr.Packets) {
		t.Fatalf("first NextBatch n = %d, want a partial read of <%d packets", n, len(tr.Packets))
	}
	if n2, err2 := src.NextBatch(batch); n2 != 0 || err2 == nil {
		t.Fatalf("second NextBatch: n=%d err=%v, want the truncation error", n2, err2)
	}
}

// fakeClock drives pacedSource deterministically: sleeps advance the clock
// instead of blocking.
type fakeClock struct {
	t     time.Time
	slept time.Duration
}

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleep(d time.Duration) {
	c.slept += d
	c.t = c.t.Add(d)
}

func TestPacedSourceNextBatchSchedule(t *testing.T) {
	var pkts []packet.Packet
	for i := 0; i < 5000; i++ {
		pkts = append(pkts, mkPkt(i%11, 100, int64(i)))
	}
	tr := NewTrace(pkts)
	clock := &fakeClock{t: time.Unix(0, 0)}
	ps := NewPacedSource(tr.Source(), 1024).(*pacedSource) // 1024 pps = one chunk per second
	ps.now = clock.now
	ps.sleep = clock.sleep

	got := drain(t, ps, 4096)
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, want %d", len(got), len(pkts))
	}
	// 5000 packets at 1024 pps with chunked pacing: ~4 whole chunk waits.
	if clock.slept < 3*time.Second || clock.slept > 5*time.Second {
		t.Errorf("paced source slept %v for 5000 pkts at 1024 pps, want ~4s", clock.slept)
	}
}

func TestPacedSourceNextBatchCapsBurst(t *testing.T) {
	var pkts []packet.Packet
	for i := 0; i < 3000; i++ {
		pkts = append(pkts, mkPkt(1, 100, int64(i)))
	}
	clock := &fakeClock{t: time.Unix(0, 0)}
	ps := NewPacedSource(NewTrace(pkts).Source(), 1e6).(*pacedSource)
	ps.now = clock.now
	ps.sleep = clock.sleep
	n, err := ps.NextBatch(make([]packet.Packet, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if n != ps.chunk {
		t.Errorf("burst = %d packets, want capped at one pacing chunk (%d)", n, ps.chunk)
	}
}
