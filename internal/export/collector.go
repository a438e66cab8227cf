package export

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"instameasure/internal/flight"
	"instameasure/internal/flowtable"
	"instameasure/internal/packet"
	"instameasure/internal/telemetry"
)

// Telemetry carries the exporter's metric handles, updated once per
// exported batch.
type Telemetry struct {
	// Batches and Records count successfully exported units; Bytes the
	// wire bytes written (framing included).
	Batches telemetry.CounterShard
	Records telemetry.CounterShard
	Bytes   telemetry.CounterShard
	// Errors counts failed sends (the batch may have been partially
	// written; the collector's CRC discards torn frames).
	Errors telemetry.CounterShard
}

// NewTelemetry registers the export metric family on reg and returns
// handles bound to worker shard w.
func NewTelemetry(reg *telemetry.Registry, w int) *Telemetry {
	return &Telemetry{
		Batches: reg.Counter("export_batches_total",
			"Flow batches exported to the collector.").Shard(w),
		Records: reg.Counter("export_records_total",
			"Flow records exported to the collector.").Shard(w),
		Bytes: reg.Counter("export_bytes_total",
			"Wire bytes written to the collector (framing included).").Shard(w),
		Errors: reg.Counter("export_errors_total",
			"Failed batch sends to the collector.").Shard(w),
	}
}

// Exporter reconnect backoff defaults.
const (
	defaultBackoffBase = 50 * time.Millisecond
	defaultBackoffMax  = 5 * time.Second
)

// ErrBackoff reports that a send was skipped because the exporter is
// disconnected and its reconnect backoff has not elapsed yet. The batch
// was not sent; the caller may retry later (cumulative snapshots make
// skipped epochs harmless — the next one carries the same totals).
var ErrBackoff = errors.New("export: waiting out reconnect backoff")

// Exporter ships flow batches to a remote collector over TCP — the
// delegation-based decoding path whose round-trip the paper measures in
// tens of milliseconds.
//
// A broken connection does not kill the exporter: the next Export redials,
// under jittered exponential backoff so a fleet of meters does not hammer
// a restarting collector in lockstep.
type Exporter struct {
	addr string

	// sendMu is the wire-order lock: held across dial + frame write so
	// concurrent Exports cannot interleave frames on the stream. It is
	// acquired BEFORE mu and is the only lock held during blocking socket
	// work — probes (Connected, Site) take mu alone and stay responsive
	// while a send is stalled on a full TCP buffer.
	sendMu sync.Mutex
	frame  []byte // the frame being sent, reused; guarded by sendMu

	mu       sync.Mutex
	conn     net.Conn  // nil while disconnected
	attempts int       // consecutive failed dials/sends
	retryAt  time.Time // no redial before this
	base     time.Duration
	max      time.Duration
	site     string // stamped on batches that carry no site of their own

	tm *Telemetry
	fl flight.Handle
}

// Dial connects an exporter to a collector address. The initial dial must
// succeed (a misconfigured address should fail fast); connections lost
// afterwards are re-established by Export under backoff.
func Dial(addr string) (*Exporter, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("export: dial %s: %w", addr, err)
	}
	return &Exporter{addr: addr, conn: conn, base: defaultBackoffBase, max: defaultBackoffMax}, nil
}

// SetTelemetry attaches metric handles updated per exported batch. Pass
// nil to detach.
func (e *Exporter) SetTelemetry(tm *Telemetry) { e.tm = tm }

// WithSite tags the exporter with a fleet site ID: every batch exported
// without a site of its own is stamped with it, bumping the frame to the
// version-2 wire so the collector can keep per-site views. An empty site
// reverts to untagged version-1 frames.
func (e *Exporter) WithSite(site string) error {
	if err := ValidateSite(site); err != nil {
		return err
	}
	e.mu.Lock()
	e.site = site
	e.mu.Unlock()
	return nil
}

// Site returns the exporter's site tag ("" when untagged).
func (e *Exporter) Site() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.site
}

// SetFlight attaches a flight-recorder handle; every send, send error,
// backoff skip, and successful redial is recorded with the batch's epoch
// id (the trace id the collector side records under too).
func (e *Exporter) SetFlight(h flight.Handle) {
	e.mu.Lock()
	e.fl = h
	e.mu.Unlock()
}

// Connected reports whether the exporter currently holds a live
// connection — the /readyz probe. False between a torn-down send and the
// successful redial.
func (e *Exporter) Connected() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.conn != nil
}

// SetBackoff overrides the reconnect backoff bounds: the first retry
// waits ~base (jittered), doubling per consecutive failure up to max.
func (e *Exporter) SetBackoff(base, max time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if base > 0 {
		e.base = base
	}
	if max >= e.base {
		e.max = max
	}
}

// backoffDelay is the jittered wait after the attempt-th consecutive
// failure: base·2^(attempt-1) capped at max, scaled by ±25%.
func (e *Exporter) backoffDelay() time.Duration {
	d := e.base << (e.attempts - 1)
	if d > e.max || d <= 0 { // <= 0: shift overflow
		d = e.max
	}
	return time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
}

// noteFailureLocked records a failed dial or send and arms the next
// retry window.
func (e *Exporter) noteFailureLocked() {
	e.attempts++
	e.retryAt = time.Now().Add(e.backoffDelay())
}

// Export sends one batch, redialing first if the connection previously
// broke. A send error tears the connection down; the following Export
// attempts the reconnect (or returns ErrBackoff while the wait is on).
//
// Blocking work — the dial and the frame write — happens under sendMu
// only; e.mu guards state for at most a few field copies at a time, so
// Connected/Site/SetBackoff never stall behind a send blocked on a full
// TCP buffer. Close tears the connection down with only e.mu held, which
// unblocks an in-flight write immediately.
func (e *Exporter) Export(b Batch) error {
	e.sendMu.Lock()
	defer e.sendMu.Unlock()

	e.mu.Lock()
	if b.Site == "" {
		b.Site = e.site
	}
	fl := e.fl
	conn := e.conn
	wasDown := conn == nil
	if wasDown && time.Now().Before(e.retryAt) {
		wait := time.Until(e.retryAt).Round(time.Millisecond)
		if e.tm != nil {
			e.tm.Errors.Inc()
		}
		e.mu.Unlock()
		fl.Event(flight.StageBackoff, b.Epoch, uint32(len(b.Records)), 0, 0)
		return fmt.Errorf("%w (%s)", ErrBackoff, wait)
	}
	e.mu.Unlock()

	if wasDown {
		// Dial outside e.mu: sendMu alone serializes reconnects, and the
		// probes stay live while the dial waits out a slow network.
		nc, err := net.Dial("tcp", e.addr)
		e.mu.Lock()
		if err != nil {
			e.noteFailureLocked()
			if e.tm != nil {
				e.tm.Errors.Inc()
			}
			e.mu.Unlock()
			fl.Event(flight.StageSendError, b.Epoch, uint32(len(b.Records)), 0, 0)
			return fmt.Errorf("export: redial %s: %w", e.addr, err)
		}
		// Close may have raced the dial: its sentinel retryAt means the
		// exporter is shut down — drop the fresh connection unused.
		if time.Now().Before(e.retryAt) {
			e.mu.Unlock()
			_ = nc.Close()
			fl.Event(flight.StageBackoff, b.Epoch, uint32(len(b.Records)), 0, 0)
			return fmt.Errorf("%w (closed)", ErrBackoff)
		}
		e.conn = nc
		e.attempts = 0
		e.mu.Unlock()
		conn = nc
		fl.Event(flight.StageReconnect, b.Epoch, 0, 0, 0)
	}

	start := time.Now()
	sent := 0
	frame, err := AppendBatch(e.frame[:0], b)
	if err == nil {
		e.frame = frame
		//im:allow locksafe sendMu is the wire-order lock; its entire purpose is to be held across this frame write, and Close unblocks it via conn.Close under e.mu
		sent, err = conn.Write(frame)
	}
	if err != nil {
		// The write already failed; a close error adds nothing.
		_ = conn.Close()
		e.mu.Lock()
		if e.conn == conn {
			e.conn = nil
			e.noteFailureLocked()
		}
		if e.tm != nil {
			e.tm.Errors.Inc()
			e.tm.Bytes.Add(uint64(sent))
		}
		e.mu.Unlock()
		fl.EventAt(start, flight.StageSendError, b.Epoch,
			uint32(len(b.Records)), uint64(sent), uint64(time.Since(start)))
		return fmt.Errorf("export: %w", err)
	}
	e.mu.Lock()
	e.attempts = 0
	if e.tm != nil {
		e.tm.Batches.Inc()
		e.tm.Records.Add(uint64(len(b.Records)))
		e.tm.Bytes.Add(uint64(sent))
	}
	e.mu.Unlock()
	fl.EventAt(start, flight.StageSend, b.Epoch,
		uint32(len(b.Records)), uint64(sent), uint64(time.Since(start)))
	return nil
}

// Close shuts the connection down. A closed exporter does not reconnect.
func (e *Exporter) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.retryAt = time.Unix(1<<62, 0) // never redial
	if e.conn == nil {
		return nil
	}
	err := e.conn.Close()
	e.conn = nil
	return err
}

// Collector accepts exporter connections and serves their frames: each
// is read, verified, decoded and handed to onBatch, counted, then handed
// to the sink and the hooks. It keeps no flow state: an additive Merge,
// the fleet tier's views and a store are consumers. Every connection is
// served by a managed goroutine; Close stops the listener and waits for
// all of them to exit.
type Collector struct {
	ln net.Listener

	// frameTimeout bounds how long a connection may sit inside one frame:
	// the read deadline is re-armed before every frame, so an exporter
	// that opens a connection and trickles bytes (or goes silent mid-frame)
	// is dropped instead of pinning a goroutine forever. Nanoseconds;
	// 0 disables the deadline.
	frameTimeout atomic.Int64

	// drops counts connections the collector let go, by DropReason; met
	// mirrors it into a registry once Instrument has run.
	drops [dropReasons]atomic.Uint64
	met   atomic.Pointer[[dropReasons]*telemetry.Counter]

	onBatch func(Batch) // fixed at construction
	mu      sync.Mutex
	batches uint64
	records uint64
	sink    func(Batch)
	hooks   []func(Batch)
	fl      flight.Handle

	closing chan struct{}
	wg      sync.WaitGroup
}

// DropReason says why the collector stopped serving a connection.
type DropReason int

const (
	// DropEOF: the exporter closed the stream between frames.
	DropEOF DropReason = iota
	// DropTimeout: a frame did not arrive whole within the frame timeout.
	DropTimeout
	// DropProtocol: anything else — bad magic or version, a checksum
	// mismatch, a stream cut mid-frame, or a socket error.
	DropProtocol
	dropReasons
)

func (r DropReason) String() string {
	return [dropReasons]string{"eof", "timeout", "protocol"}[r]
}

// DefaultFrameTimeout is how long a collector connection may take to
// deliver one complete frame before being dropped as a slow-loris.
const DefaultFrameTimeout = 30 * time.Second

// NewCollector starts a collector listening on addr (use "127.0.0.1:0"
// for an ephemeral test port). onBatch, if non-nil, fires first for each
// decoded batch, before the sink and the hooks — a Merge's Add wired here
// is the delegation collector's global table. The batch's Records are
// valid only until onBatch returns (see Batch).
func NewCollector(addr string, onBatch func(Batch)) (*Collector, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("export: listen %s: %w", addr, err)
	}
	c := &Collector{
		ln:      ln,
		onBatch: onBatch,
		closing: make(chan struct{}),
	}
	c.frameTimeout.Store(int64(DefaultFrameTimeout))
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the listener's address.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

// SetSink attaches fn, called with every batch after onBatch — the epoch
// store hangs off this to persist what remote meters report. Unlike
// onBatch it can be attached after construction; pass nil to detach. The
// batch's Records are valid only until fn returns (see Batch).
func (c *Collector) SetSink(fn func(Batch)) {
	c.mu.Lock()
	c.sink = fn
	c.mu.Unlock()
}

// AddHook appends a batch hook fired for every batch after onBatch and
// the sink — the fleet aggregation tier attaches its ingest here. Hooks
// obey the same contract as the sink: they run OUTSIDE the collector's
// lock (a slow hook never blocks Stats or another connection) and may
// be invoked concurrently from different exporter connections, so a hook
// that keeps state must do its own locking, and one that keeps records
// must copy them: they are valid only until it returns (see Batch).
func (c *Collector) AddHook(fn func(Batch)) {
	if fn == nil {
		return
	}
	c.mu.Lock()
	c.hooks = append(c.hooks, fn)
	c.mu.Unlock()
}

// SetFlight attaches a flight-recorder handle; every decoded frame is
// recorded as a receive event, timed from its first byte to decoded,
// under the batch's epoch id — the trace id the sending exporter recorded,
// which lets a dump stitch one epoch's journey across the process boundary.
func (c *Collector) SetFlight(h flight.Handle) {
	c.mu.Lock()
	c.fl = h
	c.mu.Unlock()
}

// Instrument registers collector_conn_drops_total{reason} on reg, counting
// from the call on; ConnDrops keeps the totals since the collector started.
func (c *Collector) Instrument(reg *telemetry.Registry) {
	var m [dropReasons]*telemetry.Counter
	for r := range m {
		m[r] = reg.Counter("collector_conn_drops_total",
			"Exporter connections the collector stopped serving.", "reason", DropReason(r).String())
	}
	c.met.Store(&m)
}

// ConnDrops returns how many connections the collector has stopped
// serving for the given reason. Connections cut by Close are not drops.
func (c *Collector) ConnDrops(r DropReason) uint64 { return c.drops[r].Load() }

// dropped records why serve is letting a connection go. A read that fails
// because Close interrupted it is a shutdown, not a drop.
func (c *Collector) dropped(err error) {
	if !c.Listening() {
		return
	}
	r := DropProtocol
	var ne net.Error
	switch {
	case errors.Is(err, io.EOF):
		r = DropEOF
	case errors.As(err, &ne) && ne.Timeout():
		r = DropTimeout
	}
	c.drops[r].Add(1)
	if m := c.met.Load(); m != nil {
		m[r].Inc()
	}
}

// Listening reports whether the collector still accepts connections —
// the /readyz probe. False once Close begins.
func (c *Collector) Listening() bool {
	select {
	case <-c.closing:
		return false
	default:
		return true
	}
}

func (c *Collector) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			if !c.Listening() {
				return
			}
			continue // transient accept error
		}
		c.wg.Add(1)
		go c.serve(conn)
	}
}

func (c *Collector) serve(conn net.Conn) {
	defer c.wg.Done()
	defer func() { _ = conn.Close() }() // read side is done with the conn either way

	// Unblock the read when Close fires.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-c.closing:
			// Best effort: a conn that cannot take the deadline is dying
			// anyway, which unblocks the read just the same.
			_ = conn.SetDeadline(time.Now().Add(-time.Second))
		case <-done:
		}
	}()

	rd := bufio.NewReader(conn)
	for {
		// Arm the per-frame deadline, then re-check closing: if Close's
		// immediate deadline fired before the re-arm, the check catches
		// it; if Close fires after, its SetDeadline overrides this one.
		// A connection that cannot arm its deadline has no slow-loris
		// bound: drop it and let the exporter re-dial.
		deadline := time.Time{} // timeout disabled: clear any armed deadline, or it still fires
		if d := c.frameTimeout.Load(); d > 0 {
			deadline = time.Now().Add(time.Duration(d))
		}
		if err := conn.SetReadDeadline(deadline); err != nil {
			c.dropped(err)
			return
		}
		if !c.Listening() {
			return
		}
		_, err := rd.Peek(1) // an idle connection waits holding no decode buffers
		if err == nil {
			start := time.Now()
			br := readerPool.Get().(*BatchReader)
			var b Batch
			if b, err = br.Read(rd); err == nil {
				c.deliver(start, b)
			}
			readerPool.Put(br)
		}
		if err != nil {
			// Stream end, frame deadline or protocol error: drop the
			// connection either way; the exporter re-dials.
			c.dropped(err)
			return
		}
	}
}

// readerPool holds decode buffers between frames: a connection holds one
// only while a frame is read and its callbacks run.
var readerPool = sync.Pool{New: func() any { return new(BatchReader) }}

// deliver hands b to onBatch, counts it, then hands it to the sink and
// the hooks; start is when the frame's first byte arrived.
func (c *Collector) deliver(start time.Time, b Batch) {
	decoded := time.Since(start)
	if c.onBatch != nil { // before counting: a batch Stats reports, it has seen
		c.onBatch(b)
	}
	c.mu.Lock()
	c.batches++
	c.records += uint64(len(b.Records))
	// Callbacks run unlocked, or a slow one would stall Stats and every
	// other connection (TestCollectorSlowSinkDoesNotBlockQueries).
	sink, hooks, fl := c.sink, c.hooks, c.fl
	c.mu.Unlock()

	fl.EventAt(start, flight.StageReceive, b.Epoch, uint32(len(b.Records)), 0, uint64(decoded))
	if sink != nil {
		sink(b)
	}
	for _, h := range hooks {
		h(b)
	}
}

// Stats returns batches and records received so far. A batch is counted
// once onBatch has returned, before the sink and the hooks see it.
func (c *Collector) Stats() (batches, records uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches, c.records
}

// Close stops the listener, interrupts in-flight connections, and waits
// for every goroutine to exit.
func (c *Collector) Close() error {
	close(c.closing)
	err := c.ln.Close()
	c.wg.Wait()
	return err
}

// Merge is the delegation architecture's global flow table: Add folds
// each record into one per flow — packets and bytes summed, FirstSeen the
// earliest, LastUpdate the latest — copying what it keeps. Wire it as a
// Collector's onBatch. Safe for concurrent use; the zero value is empty.
type Merge struct {
	mu    sync.Mutex
	flows flowtable.Table[flowTotals]
}

// flowTotals is a merged flow's value: the Record fields beside the key.
type flowTotals struct {
	Pkts, Bytes           float64
	FirstSeen, LastUpdate int64
}

// Add folds b's records into the table.
func (m *Merge) Add(b Batch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// A burst of records is hashed and hinted before any is merged, in order.
	var hs [flowtable.Burst]uint64
	for i := range b.Records {
		if i%flowtable.Burst == 0 {
			for k := range min(flowtable.Burst, len(b.Records)-i) {
				hs[k] = flowtable.Hash(&b.Records[i+k].Key)
				m.flows.Prefetch(hs[k])
			}
		}
		rec := &b.Records[i]
		cur, fresh := m.flows.Upsert(hs[i%flowtable.Burst], &rec.Key)
		if fresh {
			*cur = flowTotals{rec.Pkts, rec.Bytes, rec.FirstSeen, rec.LastUpdate}
			continue
		}
		cur.Pkts += rec.Pkts
		cur.Bytes += rec.Bytes
		cur.FirstSeen = min(cur.FirstSeen, rec.FirstSeen)
		cur.LastUpdate = max(cur.LastUpdate, rec.LastUpdate)
	}
}

// Lookup returns the merged record for key.
func (m *Merge) Lookup(key packet.FlowKey) (Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.flows.Get(flowtable.Hash(&key), &key)
	if v == nil {
		return Record{}, false
	}
	return Record{key, v.Pkts, v.Bytes, v.FirstSeen, v.LastUpdate}, true
}

// Flows returns a copy of the merged table, one record per flow in the
// order the flows were first added.
func (m *Merge) Flows() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, m.flows.Len())
	m.flows.Each(func(_ uint64, key *packet.FlowKey, v *flowTotals) {
		out = append(out, Record{*key, v.Pkts, v.Bytes, v.FirstSeen, v.LastUpdate})
	})
	return out
}
