package fleet

import (
	"sync"

	"instameasure/internal/telemetry"
)

// metrics holds the aggregator's registered counters. Alert counters
// are per detector kind, created lazily on first fire.
type metrics struct {
	batches   *telemetry.Counter
	records   *telemetry.Counter
	rotations *telemetry.Counter
	siteDrops *telemetry.Counter

	mu     sync.Mutex
	reg    *telemetry.Registry
	alerts map[string]*telemetry.Counter
}

func (m *metrics) alertFor(kind string) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.alerts[kind]
	if !ok {
		c = m.reg.Counter("fleet_alerts_total",
			"Detector alerts published to the fleet alert ring.", "kind", kind)
		m.alerts[kind] = c
	}
	return c
}

// Instrument registers the aggregator's metrics on reg: ingest
// counters, alert counters labeled by detector kind, and scrape-time
// gauges over the site/flow/detector tables.
func (a *Aggregator) Instrument(reg *telemetry.Registry) {
	m := &metrics{
		batches: reg.Counter("fleet_batches_total",
			"Export batches folded into the fleet aggregator."),
		records: reg.Counter("fleet_records_total",
			"Flow records carried by ingested batches."),
		rotations: reg.Counter("fleet_rotations_total",
			"Detector/changer window rotations."),
		siteDrops: reg.Counter("fleet_site_drops_total",
			"Batches dropped because the site table was full."),
		reg:    reg,
		alerts: make(map[string]*telemetry.Counter),
	}
	a.met.Store(m)

	reg.GaugeFunc("fleet_sites",
		"Distinct metering sites with a live view.", func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(len(a.sites))
		})
	reg.GaugeFunc("fleet_flows",
		"Flows in the network-wide merged view.", func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(a.net.Len())
		})
	reg.GaugeFunc("fleet_alert_ring_seq",
		"Sequence number of the newest published alert.", func() float64 {
			return float64(a.ring.lastSeq())
		})
	for _, det := range a.cfg.Detectors {
		det := det
		kind := det.Kind().String()
		reg.GaugeFunc("fleet_detector_keys",
			"Group keys tracked by a streaming detector.", func() float64 {
				a.mu.Lock()
				defer a.mu.Unlock()
				return float64(det.Stats().Keys)
			}, "kind", kind)
		reg.GaugeFunc("fleet_detector_drops",
			"Group keys rejected by a full detector table.", func() float64 {
				a.mu.Lock()
				defer a.mu.Unlock()
				return float64(det.Stats().Drops)
			}, "kind", kind)
	}
}
