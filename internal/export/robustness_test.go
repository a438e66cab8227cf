package export

import (
	"errors"
	"net"
	"testing"
	"time"

	"instameasure/internal/packet"
)

func waitOn(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCollectorFrameDeadline is the slow-loris drill: a connection that
// starts a frame and then stalls must be dropped once the per-frame read
// deadline passes, without disturbing healthy exporters.
func TestCollectorFrameDeadline(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.frameTimeout.Store(int64(50 * time.Millisecond))

	loris, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	// Half a frame header, then silence.
	if _, err := loris.Write([]byte("IMB1\x01\x00\x00")); err != nil {
		t.Fatal(err)
	}

	// The collector must hang up on us: the read unblocks with an error
	// once the serve goroutine closes the connection.
	loris.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := loris.Read(buf); err == nil {
		t.Fatal("collector kept the stalled connection open")
	}

	// A healthy exporter is unaffected.
	e, err := Dial(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	batch := Batch{Epoch: 1, Records: []Record{{Key: packet.V4Key(1, 2, 3, 4, packet.ProtoTCP), Pkts: 5, Bytes: 500}}}
	if err := e.Export(batch); err != nil {
		t.Fatal(err)
	}
	waitOn(t, "batch merge", func() bool { b, _ := c.Stats(); return b == 1 })
}

// TestFrameTimeoutDisableClearsDeadline verifies a frame timeout of 0
// actually disables the deadline on connections that already had one
// armed: a frame arriving long after the previously armed deadline would
// have fired must still be served, not dropped.
func TestFrameTimeoutDisableClearsDeadline(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.frameTimeout.Store(int64(200 * time.Millisecond))

	e, err := Dial(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	batch := Batch{Epoch: 1, Records: []Record{{Key: packet.V4Key(1, 2, 3, 4, packet.ProtoTCP), Pkts: 1, Bytes: 64}}}
	if err := e.Export(batch); err != nil {
		t.Fatal(err)
	}
	waitOn(t, "first merge", func() bool { b, _ := c.Stats(); return b == 1 })

	// Disable, then send another frame so the serve loop's next iteration
	// observes the zero timeout and clears the deadline it armed after the
	// first frame.
	c.frameTimeout.Store(0)
	if err := e.Export(batch); err != nil {
		t.Fatal(err)
	}
	waitOn(t, "second merge", func() bool { b, _ := c.Stats(); return b == 2 })

	// Idle well past where the old deadline would have fired: the
	// connection must survive and the next frame merge.
	time.Sleep(600 * time.Millisecond)
	if err := e.Export(batch); err != nil {
		t.Fatalf("export after disabled timeout: %v", err)
	}
	waitOn(t, "third merge", func() bool { b, _ := c.Stats(); return b == 3 })
}

// TestExporterBackoffBounds pins the jittered exponential schedule:
// base·2^(n-1) capped at max, scaled into [0.75, 1.25].
func TestExporterBackoffBounds(t *testing.T) {
	e := &Exporter{base: 10 * time.Millisecond, max: 80 * time.Millisecond}
	for attempt := 1; attempt <= 8; attempt++ {
		e.attempts = attempt
		nominal := e.base << (attempt - 1)
		if nominal > e.max {
			nominal = e.max
		}
		lo := time.Duration(0.75 * float64(nominal))
		hi := time.Duration(1.25 * float64(nominal))
		for trial := 0; trial < 20; trial++ {
			if d := e.backoffDelay(); d < lo || d > hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
	// Deep attempt counts must not overflow the shift into a zero delay.
	e.attempts = 200
	if d := e.backoffDelay(); d < time.Duration(0.75*float64(e.max)) {
		t.Fatalf("attempt 200: delay %v collapsed below the cap", d)
	}
}

// TestExporterReconnect kills the collector under a connected exporter and
// restarts it on the same address: sends fail for a while (some with
// ErrBackoff while the wait is armed), then flow again with no new Dial.
func TestExporterReconnect(t *testing.T) {
	c1, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := c1.Addr()

	e, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetBackoff(2*time.Millisecond, 20*time.Millisecond)

	batch := Batch{Epoch: 1, Records: []Record{{Key: packet.V4Key(9, 9, 9, 9, packet.ProtoUDP), Pkts: 1, Bytes: 64}}}
	if err := e.Export(batch); err != nil {
		t.Fatal(err)
	}
	waitOn(t, "first merge", func() bool { b, _ := c1.Stats(); return b == 1 })
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// With the collector gone, Export must start failing (TCP buffering
	// may swallow the first send or two) without panicking or blocking.
	waitOn(t, "send failure", func() bool { return e.Export(batch) != nil })

	// Restart on the same address and keep exporting: once the backoff
	// window allows the redial, batches arrive at the new collector. The
	// exporter object is the same one — no explicit re-Dial.
	c2, err := NewCollector(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sawBackoff := false
	waitOn(t, "reconnect", func() bool {
		err := e.Export(batch)
		if errors.Is(err, ErrBackoff) {
			sawBackoff = true
		}
		return err == nil
	})
	waitOn(t, "merge after reconnect", func() bool { b, _ := c2.Stats(); return b >= 1 })
	_ = sawBackoff // timing-dependent; the reconnect itself is the assertion
}
