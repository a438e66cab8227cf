package instameasure

import (
	"io"
	"net/http"
	"time"

	"instameasure/internal/flight"
)

// Flight-recorder aliases: the dump vocabulary of /debug/flight. The
// recorder itself is always on — every Meter, Exporter,
// Collector, and FlowStore records into the process-wide recorder, and
// the cost is a few atomic stores on sampled or per-epoch paths.
type (
	// FlightDump is a point-in-time capture of the flight recorder: raw
	// events, per-epoch timelines, and SLO state. It round-trips through
	// JSON (wsafdump -flight re-renders a saved dump).
	FlightDump = flight.Dump
	// FlightEvent is one recorded event.
	FlightEvent = flight.Event
	// FlightEpoch is one epoch's reconstructed cut→…→commit timeline.
	FlightEpoch = flight.EpochTimeline
	// FlightSLO is the detection-delay SLO tracker's state.
	FlightSLO = flight.SLOState
)

// FlightSnapshot captures the process-wide flight recorder: every event
// still held in the rings, the per-epoch timelines reconstructed from
// them, and the SLO tracker's state.
func FlightSnapshot() FlightDump {
	return flight.Snapshot(flight.Default())
}

// WriteFlightTimeline renders a dump as the human-oriented text timeline
// (the ?fmt=text view of /debug/flight).
func WriteFlightTimeline(w io.Writer, d FlightDump) error {
	return flight.WriteTimeline(w, d)
}

// FlightHandler returns the /debug/flight handler (JSON dump, or text
// with ?fmt=text) for embedding into an existing HTTP server;
// Telemetry.Serve mounts it automatically.
func FlightHandler() http.Handler {
	return flight.NewHandler(flight.Default())
}

// SetDetectionDelayBudget arms the SLO tracker: the p99 cut→commit
// latency of recent epochs is compared against d, and the ratio is
// exposed as the instameasure_slo_burn gauge (>1 means the paper's
// "instant detection" promise, as configured, is being blown). 0
// disables burn computation.
func SetDetectionDelayBudget(d time.Duration) {
	flight.Default().SetBudget(d)
}

// MarkEpochCut records the epoch-cut event that opens epoch's
// detection-delay interval: call it at the moment the epoch boundary is
// decided, before exporting or committing the snapshot. The flow count
// recorded is the WSAF population at the cut, summed across workers.
func (m *Meter) MarkEpochCut(epoch int64) {
	m.sys.Flight().Control().Event(flight.StageCut, epoch, uint32(m.live()), 0, 0)
}

// Connected reports whether the exporter currently holds a live
// connection to its collector — false between a torn-down send and the
// successful redial. Use as a /readyz probe via RegisterHealth.
func (e *Exporter) Connected() bool { return e.e.Connected() }

// Listening reports whether the collector still accepts connections —
// false once Close begins. Use as a /readyz probe via RegisterHealth.
func (c *Collector) Listening() bool { return c.c.Listening() }

// Healthy is the store's readiness probe: nil while appends can succeed,
// an error once the store is closed or wedged by a failed write.
func (f *FlowStore) Healthy() error { return f.st.Healthy() }
