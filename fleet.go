package instameasure

import (
	"fmt"

	"instameasure/internal/detect"
	"instameasure/internal/fleet"
	"instameasure/internal/flight"
	"instameasure/internal/telemetry"
)

// Fleet mode: a Collector with EnableFleet turns from a flat record
// merger into a network-wide aggregation tier — per-site views keyed by
// each exporter's site ID, a merged network view under the
// cumulative-counter model, global top-k with per-site attribution, and
// online streaming detectors (DDoS victim, super-spreader, port scan)
// that fire once per attack episode. See the README's "Fleet mode"
// quickstart.

// FleetAlert is one detector firing; see the detect package for field
// semantics. Seq orders alerts and is the cursor for Fleet.Alerts.
type FleetAlert = detect.Alert

// FleetFlow is one flow in a network-wide ranking with per-site
// attribution.
type FleetFlow = fleet.FlowRank

// FleetSite summarizes one site's view at the collector.
type FleetSite = fleet.SiteStats

// FleetStats summarizes the whole fleet tier.
type FleetStats = fleet.Stats

// FleetConfig configures the fleet tier on a Collector. A zero
// threshold disables that detector.
type FleetConfig struct {
	// DDoSSources: alert when one destination is reached by about this
	// many distinct source addresses within a detector window.
	DDoSSources float64
	// SpreaderDsts: alert when one source contacts about this many
	// distinct destination addresses within a window.
	SpreaderDsts float64
	// ScanPorts: alert when one source probes about this many distinct
	// destination ports within a window.
	ScanPorts float64
	// MaxSites bounds distinct site views (default 64).
	MaxSites int
	// AlertRingSize bounds the in-memory alert history (default 1024).
	AlertRingSize int
	// OnAlert, when set, fires for every published alert (outside the
	// aggregator's lock).
	OnAlert func(FleetAlert)
}

// Fleet is the network-wide tier of a Collector.
type Fleet struct {
	agg *fleet.Aggregator
}

// EnableFleet makes every batch feed the per-site/network views and the
// configured detectors instead of the additive table, whose place in
// Flows the network view takes. Call once, before traffic arrives.
func (c *Collector) EnableFleet(cfg FleetConfig) (*Fleet, error) {
	var dets []*detect.StreamDetector
	add := func(kind detect.StreamKind, threshold float64) error {
		if threshold <= 0 {
			return nil
		}
		d, err := detect.NewStreamDetector(detect.StreamConfig{Kind: kind, Threshold: threshold})
		if err != nil {
			return err
		}
		dets = append(dets, d)
		return nil
	}
	if err := add(detect.KindDDoSVictim, cfg.DDoSSources); err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	if err := add(detect.KindSuperSpreader, cfg.SpreaderDsts); err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	if err := add(detect.KindPortScan, cfg.ScanPorts); err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	agg, err := fleet.New(fleet.Config{
		MaxSites:      cfg.MaxSites,
		AlertRingSize: cfg.AlertRingSize,
		Detectors:     dets,
		OnAlert:       cfg.OnAlert,
	})
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	agg.SetFlight(flight.Default().Control())
	c.fleet.Store(agg)
	c.c.AddHook(agg.Ingest)
	return &Fleet{agg: agg}, nil
}

// TopKPackets returns the k heaviest network-wide flows by lifetime
// packet totals, each attributed to the sites that observed it.
func (f *Fleet) TopKPackets(k int) []FleetFlow { return f.agg.TopK(k, false) }

// TopKBytes is TopKPackets ranked by bytes.
func (f *Fleet) TopKBytes(k int) []FleetFlow { return f.agg.TopK(k, true) }

// Sites lists every reporting site, sorted by name.
func (f *Fleet) Sites() []FleetSite { return f.agg.Sites() }

// Alerts returns up to max alerts with Seq > since, oldest first.
// Poll with the last Seq seen; since=0 starts from the oldest retained.
func (f *Fleet) Alerts(since uint64, max int) []FleetAlert { return f.agg.Alerts(since, max) }

// Rotate closes the current detector/changer window by hand. Windows
// also rotate automatically whenever an arriving batch opens a later
// export epoch.
func (f *Fleet) Rotate() { f.agg.Rotate() }

// Stats summarizes the fleet tier.
func (f *Fleet) Stats() FleetStats { return f.agg.Stats() }

// Instrument registers the fleet tier's metrics (fleet_batches_total,
// fleet_alerts_total{kind}, fleet_sites, ...) on t's registry.
func (f *Fleet) Instrument(t *Telemetry) { f.agg.Instrument(t.reg) }

// WithSite stamps every batch this exporter sends with a site ID, so a
// fleet-enabled collector can keep per-site views and attribute
// network-wide flows. Site IDs are 1–64 printable ASCII bytes. Batches
// sent without a site use the v1 wire format, so old collectors still
// interoperate.
func (e *Exporter) WithSite(site string) error {
	if err := e.e.WithSite(site); err != nil {
		return fmt.Errorf("instameasure: %w", err)
	}
	return nil
}

// Site returns the exporter's configured site ID ("" when unset).
func (e *Exporter) Site() string { return e.e.Site() }

// NewTelemetry builds a standalone metrics registry for processes that
// run no Meter — a fleet collector, for instance — so they
// can still serve /metrics and mount the fleet's JSON API.
func NewTelemetry() *Telemetry {
	return &Telemetry{reg: telemetry.NewRegistry("instameasure", 1)}
}

// ServeFleet mounts f's JSON API on this endpoint — /fleet/sites,
// /fleet/topk, /fleet/changers, /fleet/alerts, /fleet/stats — and
// registers the fleet's metrics on the same registry /metrics serves.
// Call it at most once per server.
func (s *TelemetryServer) ServeFleet(f *Fleet) {
	f.agg.Instrument(s.reg)
	s.s.Handle("/fleet/", fleet.NewAPI(f.agg))
}
