package store

import (
	"time"

	"instameasure/internal/flight"
	"instameasure/internal/telemetry"
)

// queryKind indexes the per-query-latency histograms.
type queryKind int

const (
	queryTopK queryKind = iota
	queryTimeline
	queryChangers
	queryKinds
)

// storeMetrics holds the store's registered metric handles.
type storeMetrics struct {
	appends      telemetry.CounterShard
	appendBytes  telemetry.CounterShard
	appendErrors telemetry.CounterShard
	appendNanos  telemetry.HistogramShard
	queryNanos   [queryKinds]telemetry.HistogramShard
}

// Instrument registers the store metric family on reg: append counts,
// bytes, failures and latency, on-disk gauges, and per-query latency
// histograms. Safe to call once per store.
func (s *Store) Instrument(reg *telemetry.Registry) {
	tm := &storeMetrics{
		appends: reg.Counter("store_appends_total",
			"Epoch records appended to the history store.").Shard(0),
		appendBytes: reg.Counter("store_append_bytes_total",
			"Bytes written to the history store (framing included).").Shard(0),
		appendErrors: reg.Counter("store_append_errors_total",
			"Epoch appends that failed; each failed epoch is missing from the store.").Shard(0),
		appendNanos: reg.Histogram("store_append_nanos",
			"Append latency in nanoseconds (encode, write, and fsync when enabled).", 0).Shard(0),
	}
	for kind, name := range map[queryKind]string{
		queryTopK:     "topk",
		queryTimeline: "timeline",
		queryChangers: "changers",
	} {
		tm.queryNanos[kind] = reg.Histogram("store_query_nanos",
			"History query latency in nanoseconds.", 0, "query", name).Shard(0)
	}
	reg.GaugeFunc("store_segments", "Segment files in the history store.", func() float64 {
		return float64(s.Stats().Segments)
	})
	reg.GaugeFunc("store_bytes", "On-disk size of the history store.", func() float64 {
		return float64(s.Stats().Bytes)
	})
	reg.GaugeFunc("store_epochs", "Distinct epochs queryable in the history store.", func() float64 {
		return float64(s.Stats().Epochs)
	})

	s.mu.Lock()
	s.tm = tm
	s.mu.Unlock()
}

// observeQuery records one query's latency, when instrumented, and
// leaves a query event in the flight recorder.
func (s *Store) observeQuery(kind queryKind, start time.Time) {
	s.mu.Lock()
	tm, fl := s.tm, s.fl
	s.mu.Unlock()
	elapsed := uint64(time.Since(start))
	if tm != nil {
		tm.queryNanos[kind].Observe(elapsed)
	}
	fl.EventAt(start, flight.StageQuery, 0, uint32(kind), 0, elapsed)
}
