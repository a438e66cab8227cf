package instameasure

import (
	"fmt"
	"net/http"

	"instameasure/internal/export"
	"instameasure/internal/flight"
	"instameasure/internal/store"
)

// Store-facing aliases: the query vocabulary of the epoch store. See the
// README's "Querying flow history" section.
type (
	// EpochWindow selects an inclusive epoch range; 0 on either end means
	// open (From: 0 = the beginning of history, To: 0 = the latest epoch).
	EpochWindow = store.Window
	// FlowDelta is one flow's traffic within a window.
	FlowDelta = store.FlowDelta
	// TimelinePoint is one epoch of a single flow's history.
	TimelinePoint = store.TimelinePoint
	// FlowChange is one flow's delta between two windows.
	FlowChange = store.FlowChange
	// FlowStoreStats summarizes a store's contents and activity.
	FlowStoreStats = store.StoreStats
	// StoreOptions parameterizes OpenFlowStore: its one field, Sync, is the
	// fsync policy, and the zero value leaves flushing to the OS.
	StoreOptions = store.Options
)

// Fsync policies for StoreOptions.Sync.
const (
	// StoreSyncNone leaves flushing to the OS (default): a process crash
	// cannot corrupt the store, an OS crash can lose recent appends.
	StoreSyncNone = store.SyncNone
	// StoreSyncEach fsyncs after every append: an acknowledged epoch
	// survives power loss.
	StoreSyncEach = store.SyncEach
)

// FlowStore is a crash-safe, append-only history of epoch snapshots plus
// the query engine over it: per-flow timelines, windowed top-k, and
// heavy-changer detection. One store directory belongs to one writing
// process at a time; queries are safe from any goroutine while appends
// run. The store keeps every epoch it is given: nothing is deleted or
// rewritten, and no goroutine of its own runs.
type FlowStore struct {
	st *store.Store
}

// OpenFlowStore opens (or creates) the store in dir. A torn tail left by
// a crash mid-append is truncated away — opening after a kill -9 recovers
// every fully written epoch.
func OpenFlowStore(dir string, opt StoreOptions) (*FlowStore, error) {
	st, err := store.Open(dir, opt)
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	// Commits and queries land in the flight recorder;
	// commits carry the epoch id that closes the cut→commit interval.
	st.SetFlight(flight.Default().Control())
	return &FlowStore{st: st}, nil
}

// Dir returns the store's directory.
func (f *FlowStore) Dir() string { return f.st.Dir() }

// Stats summarizes the store: segments, records, epoch range, appends,
// failed appends, truncations.
func (f *FlowStore) Stats() FlowStoreStats { return f.st.Stats() }

// Epochs returns every epoch the store can answer for, ascending.
func (f *FlowStore) Epochs() []int64 { return f.st.Epochs() }

// TopK returns the k heaviest flows in the window by packets (or bytes).
// A window's traffic is the growth of each flow's cumulative counters
// between the window's edges; the zero window means all of history.
func (f *FlowStore) TopK(w EpochWindow, k int, byBytes bool) ([]FlowDelta, error) {
	return f.st.TopK(w, k, byBytes)
}

// Timeline returns key's per-epoch history inside the window.
func (f *FlowStore) Timeline(key FlowKey, w EpochWindow) ([]TimelinePoint, error) {
	return f.st.Timeline(key, w)
}

// TimelineByHash resolves a flow by its 64-bit id (FlowKey.Hash64 with
// seed 0 — the id the HTTP API prints) and returns its timeline plus the
// matched key.
func (f *FlowStore) TimelineByHash(id uint64) ([]TimelinePoint, FlowKey, error) {
	return f.st.TimelineByHash(id)
}

// HeavyChangers ranks flows by |traffic change| between two windows —
// the paper's heavy-changer question asked of stored history.
func (f *FlowStore) HeavyChangers(older, newer EpochWindow, k int, byBytes bool) ([]FlowChange, error) {
	return f.st.HeavyChangers(older, newer, k, byBytes)
}

// DefaultChangerWindows is the "what just changed" pair: the latest
// stored epoch against the one before it. ok is false with fewer than
// two epochs.
func (f *FlowStore) DefaultChangerWindows() (older, newer EpochWindow, ok bool) {
	return f.st.DefaultChangerWindows()
}

// EpochFlows returns the flow table stored for exactly that epoch, with
// the WSAF activity counters captured alongside it. ok is false if no
// append carried that epoch.
func (f *FlowStore) EpochFlows(epoch int64) (flows []FlowRecord, activity WSAFActivity, ok bool, err error) {
	recs, stats, ok, err := f.st.EpochRecords(epoch)
	if err != nil || !ok {
		return nil, WSAFActivity{}, ok, err
	}
	return recs, stats, true, nil
}

// Sync flushes the active segment to stable storage.
func (f *FlowStore) Sync() error { return f.st.Sync() }

// Instrument registers the store's metrics (appends, failed appends, query
// latencies, size gauges) on t's registry.
func (f *FlowStore) Instrument(t *Telemetry) { f.st.Instrument(t.reg) }

// Handler returns the store's JSON query API (/flows/topk,
// /flows/timeline, /flows/changers, /flows/stats) as a single handler
// that dispatches on the request path, for mounting on any HTTP server.
// TelemetryServer.ServeFlows mounts it for you.
func (f *FlowStore) Handler() http.Handler { return store.NewQueryAPI(f.st) }

// Close seals the store: the active segment is flushed and closed.
// Queries and appends fail afterwards.
func (f *FlowStore) Close() error { return f.st.Close() }

// WithStore opens the store in dir with default options and attaches it
// as the meter's history sink: each CommitEpoch call appends the live
// snapshot, merged across workers. The meter owns nothing — close the
// returned store when done.
func (m *Meter) WithStore(dir string) (*FlowStore, error) {
	fs, err := OpenFlowStore(dir, StoreOptions{})
	if err != nil {
		return nil, err
	}
	m.store = fs
	return fs, nil
}

// AttachStore attaches an already-open store (pass nil to detach), for
// callers that need non-default StoreOptions.
func (m *Meter) AttachStore(fs *FlowStore) { m.store = fs }

// Store returns the attached store, or nil.
func (m *Meter) Store() *FlowStore { return m.store }

// CommitEpoch appends the meter's current flow table and WSAF activity,
// merged across workers, to the attached store as epoch's snapshot.
// Counters are cumulative, so a committed epoch carries totals since
// start — the store's windowed queries difference them.
func (m *Meter) CommitEpoch(epoch int64) error {
	if m.store == nil {
		return fmt.Errorf("instameasure: no store attached (use WithStore)")
	}
	var f store.Frame
	m.store.st.Begin(&f, epoch, m.live())
	if err := m.store.st.Commit(&f, m.encodeCut(&f.Encoder)); err != nil {
		return fmt.Errorf("instameasure: %w", err)
	}
	return nil
}

// WithStore attaches an open store as the collector's sink: every batch
// received from remote meters is appended under the batch's epoch (with
// no WSAF activity — batches don't carry it). Batches from multiple
// exporters tagged with the same epoch union in queries, later appends
// winning per flow. An append that fails loses its batch; the store
// counts it in Stats().AppendErrors (store_append_errors_total). Pass nil
// to detach.
func (c *Collector) WithStore(fs *FlowStore) {
	if fs == nil {
		c.c.SetSink(nil)
		return
	}
	st := fs.st
	c.c.SetSink(func(b export.Batch) {
		st.Append(b.Epoch, b.Records, export.TableStats{}) //nolint:errcheck // Append counts its own failures in StoreStats.AppendErrors
	})
}
