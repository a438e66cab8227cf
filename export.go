package instameasure

import (
	"fmt"
	"time"

	"instameasure/internal/export"
	"instameasure/internal/flight"
)

// Collector receives flow batches exported by remote meters over TCP and
// merges them into a global table — the delegation architecture the paper
// contrasts with (and that archival deployments still want).
type Collector struct {
	c *export.Collector
}

// NewCollector listens on addr ("host:port"; use ":0" for an ephemeral
// port). onBatch, if non-nil, fires after each merged batch with the epoch
// and a copy of the batch's flows, which it may keep.
func NewCollector(addr string, onBatch func(epoch int64, flows []FlowRecord)) (*Collector, error) {
	var hook func(export.Batch)
	if onBatch != nil {
		hook = func(b export.Batch) {
			onBatch(b.Epoch, fromExport(b.Records))
		}
	}
	c, err := export.NewCollector(addr, hook)
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	// Every merged frame lands in the flight recorder under the batch's
	// epoch id — the collector half of the cross-process epoch timeline.
	c.SetFlight(flight.Default().Control())
	return &Collector{c: c}, nil
}

// Addr returns the listening address (useful with ":0").
func (c *Collector) Addr() string { return c.c.Addr() }

// Flows returns the merged flow table across all exporters and epochs.
func (c *Collector) Flows() []FlowRecord { return fromExport(c.c.Flows()) }

// Stats returns batches and records merged so far.
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
// workers, tagged with epoch. The snapshot walk and wire encoding are
// recorded as the epoch's encode stage; the send itself (and any
// reconnect/backoff) records separately inside the exporter.
func (e *Exporter) ExportMeter(m *Meter, epoch int64) error {
	start := time.Now()
	records, _ := m.cut()
	m.sys.Flight().Control().EventAt(start, flight.StageEncode, epoch,
		uint32(len(records)), 0, uint64(time.Since(start)))
	if err := e.e.Export(export.Batch{Epoch: epoch, Records: records}); err != nil {
		return fmt.Errorf("instameasure: %w", err)
	}
	return nil
}

// Close shuts the connection down.
func (e *Exporter) Close() error { return e.e.Close() }
