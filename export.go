package instameasure

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"instameasure/internal/export"
	"instameasure/internal/fleet"
	"instameasure/internal/flight"
)

// Collector receives flow batches exported by remote meters over TCP and
// merges them additively into a global table — the delegation
// architecture the paper contrasts with (and that archival deployments
// still want) — unless EnableFleet makes it the network-wide tier.
type Collector struct {
	c     *export.Collector
	merge export.Merge
	fleet atomic.Pointer[fleet.Aggregator] // set by EnableFleet
}

// NewCollector listens on addr ("host:port"; use ":0" for an ephemeral
// port). Each batch is merged, then onBatch, if non-nil, fires with the
// epoch and a copy of the batch's flows, which it may keep; the store
// (WithStore) and the fleet tier see the batch after that.
func NewCollector(addr string, onBatch func(epoch int64, flows []FlowRecord)) (*Collector, error) {
	c := &Collector{}
	var err error
	c.c, err = export.NewCollector(addr, func(b export.Batch) {
		if c.fleet.Load() == nil {
			c.merge.Add(b)
		}
		if onBatch != nil {
			onBatch(b.Epoch, slices.Clone(b.Records))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	// Every received frame lands in the flight recorder under the batch's
	// epoch id — the collector half of the cross-process epoch timeline.
	c.c.SetFlight(flight.Default().Control())
	return c, nil
}

// Addr returns the listening address (useful with ":0").
func (c *Collector) Addr() string { return c.c.Addr() }

// Flows returns the additive merge across all exporters and epochs, one
// record per flow in the order flows were first reported. With
// EnableFleet it is the fleet's network view instead — each flow's
// cross-site lifetime totals by packets, FirstSeen and LastUpdate zero —
// in which a re-sent cumulative snapshot counts once.
func (c *Collector) Flows() []FlowRecord {
	agg := c.fleet.Load()
	if agg == nil {
		return c.merge.Flows()
	}
	var out []FlowRecord
	for _, f := range agg.TopK(0, false) {
		out = append(out, FlowRecord{Key: f.Key, Pkts: f.Pkts, Bytes: f.Bytes})
	}
	return out
}

// Stats returns batches and records received so far.
func (c *Collector) Stats() (batches, records uint64) { return c.c.Stats() }

// Close stops the listener and waits for all connections to drain.
func (c *Collector) Close() error { return c.c.Close() }

// Exporter ships a meter's flow table to a Collector.
type Exporter struct {
	e *export.Exporter
}

// DialCollector connects to a collector.
func DialCollector(addr string) (*Exporter, error) {
	e, err := export.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	// Sends, send errors, backoff skips, and redials all land in the
	// flight recorder under the batch's epoch id.
	e.SetFlight(flight.Default().Control())
	return &Exporter{e: e}, nil
}

// ExportMeter sends the meter's current flow table, merged across
// workers, tagged with epoch and the exporter's site. The walk encodes
// straight into the frame, recorded as the epoch's encode stage, before
// the send takes the exporter's wire-order lock; the send itself (and
// any reconnect/backoff) records separately inside the exporter.
func (e *Exporter) ExportMeter(m *Meter, epoch int64) error {
	start := time.Now()
	var enc export.Encoder
	enc.Begin(m.frame[:0], epoch, e.e.Site(), m.live())
	m.encodeCut(&enc)
	var err error
	m.frame, err = enc.End()
	m.sys.Flight().Control().EventAt(start, flight.StageEncode, epoch,
		uint32(enc.Count()), 0, uint64(time.Since(start)))
	if err == nil {
		err = e.e.Send(m.frame, epoch, enc.Count())
	}
	if err != nil {
		return fmt.Errorf("instameasure: %w", err)
	}
	return nil
}

// Close shuts the connection down.
func (e *Exporter) Close() error { return e.e.Close() }
