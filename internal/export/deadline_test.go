package export

import (
	"errors"
	"net"
	"testing"
	"time"
)

// noDeadlineConn wraps a conn with a SetReadDeadline that always fails,
// standing in for a broken or deadline-less transport.
type noDeadlineConn struct {
	net.Conn
}

func (noDeadlineConn) SetReadDeadline(time.Time) error {
	return errors.New("deadline unsupported")
}

// A connection that cannot arm its per-frame read deadline has no
// slow-loris bound, so serve must drop it instead of reading unbounded.
// Before the fix the SetReadDeadline error was ignored and serve parked
// forever in ReadBatch.
func TestServeDropsConnWhenDeadlineArmFails(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	client, server := net.Pipe()
	defer client.Close() // keep the exporter side open: serve must exit on its own

	c.wg.Add(1)
	done := make(chan struct{})
	go func() {
		c.serve(noDeadlineConn{Conn: server})
		close(done)
	}()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serve kept a connection whose read deadline cannot be armed")
	}
}

// The disable path re-arms with the zero time; a failure there is the
// same unbounded-read hazard and must also drop the connection.
func TestServeDropsConnWhenDeadlineClearFails(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.frameTimeout.Store(0)

	client, server := net.Pipe()
	defer client.Close()

	c.wg.Add(1)
	done := make(chan struct{})
	go func() {
		c.serve(noDeadlineConn{Conn: server})
		close(done)
	}()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serve kept a connection whose read deadline cannot be cleared")
	}
}
