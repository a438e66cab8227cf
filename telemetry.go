package instameasure

import (
	"fmt"
	"io"
	"net/http"

	"instameasure/internal/export"
	"instameasure/internal/flight"
	"instameasure/internal/telemetry"
)

// Telemetry is the live metrics registry of a Meter: lock-free
// counters, gauges, and histograms updated on the measurement hot path
// and scrapeable at any time, including while traffic is flowing.
//
// Metric names are Prometheus-style with the "instameasure_" namespace —
// see the README's Observability section for the catalog.
type Telemetry struct {
	reg *telemetry.Registry
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (the same payload /metrics serves). Errors from w propagate: a
// short or broken write means the caller does not hold a complete
// exposition and must not treat it as one.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	return t.reg.WritePrometheus(w)
}

// Handler returns an http.Handler serving the Prometheus text format,
// for embedding into an existing HTTP server.
func (t *Telemetry) Handler() http.Handler { return t.reg.Handler() }

// Value returns the current value of the named scalar metric (counters,
// gauges, computed gauges), summed over labeled children. Names are
// fully qualified, e.g. "instameasure_packets_total".
func (t *Telemetry) Value(name string) float64 { return t.reg.Value(name) }

// Each calls fn for every scalar series with its current value.
func (t *Telemetry) Each(fn func(series string, value float64)) { t.reg.Each(fn) }

// MetricNames returns the sorted metric family names.
func (t *Telemetry) MetricNames() []string { return t.reg.SeriesNames() }

// Serve starts the observability endpoint on addr ("host:port"; ":0"
// picks an ephemeral port): /metrics (Prometheus text), /debug/vars
// (expvar), /debug/pprof/*, /debug/flight (the flight recorder's epoch
// timelines; ?fmt=text for the human view), and /healthz + /readyz
// (component health — register probes with RegisterHealth; ServeFlows
// registers the store's automatically).
func (t *Telemetry) Serve(addr string) (*TelemetryServer, error) {
	telemetry.RegisterRuntimeMetrics(t.reg)
	s, err := telemetry.NewServer(addr, t.reg)
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	health := flight.NewHealth()
	s.Handle("/debug/flight", flight.NewHandler(flight.Default()))
	s.Handle("/healthz", health.LiveHandler())
	s.Handle("/readyz", health.ReadyHandler())
	return &TelemetryServer{s: s, reg: t.reg, health: health}, nil
}

// TelemetryServer is a running observability endpoint.
type TelemetryServer struct {
	s      *telemetry.Server
	reg    *telemetry.Registry
	health *flight.Health
}

// RegisterHealth adds (or replaces) a named component probe backing
// /healthz and /readyz: return nil when healthy, an error carrying the
// reason otherwise. Probes run at request time. Conventional components:
//
//	srv.RegisterHealth("exporter", func() error {
//		if !exp.Connected() { return errors.New("collector connection down") }
//		return nil
//	})
//	srv.RegisterHealth("pipeline", meter.Saturated)
func (s *TelemetryServer) RegisterHealth(name string, probe func() error) {
	s.health.Register(name, probe)
}

// ServeFlows mounts fs's JSON query API on this endpoint — /flows/topk,
// /flows/timeline, /flows/changers, /flows/stats — registers the store's
// metrics (including query latency histograms) on the same registry
// /metrics serves, and registers the store's health probe on /readyz.
// Call it at most once per server.
func (s *TelemetryServer) ServeFlows(fs *FlowStore) {
	fs.st.Instrument(s.reg)
	s.s.Handle("/flows/", fs.Handler())
	s.health.Register("store", fs.st.Healthy)
}

// Addr returns the bound listen address.
func (s *TelemetryServer) Addr() string { return s.s.Addr() }

// URL returns the endpoint's base URL.
func (s *TelemetryServer) URL() string { return "http://" + s.s.Addr() }

// Close stops the listener and any in-flight scrapes.
func (s *TelemetryServer) Close() error { return s.s.Close() }

// Telemetry returns the meter's metrics registry, shared by every worker;
// per-worker series carry a worker label. The registry is safe to scrape
// from any goroutine while the meter processes packets.
func (m *Meter) Telemetry() *Telemetry {
	return &Telemetry{reg: m.sys.Telemetry()}
}

// Instrument registers the collector's connection-drop counters
// (collector_conn_drops_total{reason="eof"|"timeout"|"protocol"}) on t's
// registry: every exporter connection the collector stops serving, by why.
func (c *Collector) Instrument(t *Telemetry) { c.c.Instrument(t.reg) }

// Instrument attaches export metrics (export_batches_total,
// export_records_total, export_bytes_total, export_errors_total) to t's
// registry, updated on every batch this exporter sends.
func (e *Exporter) Instrument(t *Telemetry) {
	e.e.SetTelemetry(export.NewTelemetry(t.reg, 0))
}
