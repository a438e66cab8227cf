// Package flight is the measurement system's always-on flight recorder:
// fixed-size, lock-free per-worker ring buffers of compact structured
// events covering the full epoch lifecycle — epoch cut, snapshot encode,
// exporter send/reconnect/backoff, collector frame receive, store
// commit, query — plus sampled hot-path packet spans. The
// epoch id recorded with every lifecycle event is the same id the export
// wire format carries in its batch header, so one epoch's journey is
// reconstructable across the exporter→collector process boundary by
// merging the two sides' dumps.
//
// Recording is multi-writer safe and allocation-free: each ring slot is a
// per-slot seqlock of atomic words, writers reserve a slot with one
// fetch-add and open it with one compare-and-swap, and readers (the
// /debug/flight handler, the timeline reconstruction) skip slots whose
// sequence moved under them. The hot path records only sampled spans
// through Handle.Span, which the imvet hotpath gate holds hash- and
// lock-free and TestSpanZeroAllocs holds allocation-free.
//
// A Recorder also derives observability surfaces: per-stage duration
// histograms (instameasure_epoch_stage_seconds) pushed into any
// telemetry.Registry bound via Instrument, and a small SLO tracker
// comparing the p99 cut→commit latency — the paper's detection-delay
// bound made measurable — against a configurable budget, with the burn
// ratio exposed as a gauge.
package flight

import (
	"context"
	"math/bits"
	"runtime"
	"runtime/trace"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"instameasure/internal/telemetry"
)

// Stage identifies one step of the epoch lifecycle (or a sampled
// hot-path span).
type Stage uint8

const (
	stageInvalid Stage = iota
	// StageCut marks an epoch boundary: the moment the cutter decided
	// epoch N is over and its snapshot pipeline begins.
	StageCut
	// StageEncode is the snapshot walk + wire encoding of the flow table.
	StageEncode
	// StageSend is one successfully written export batch (Bytes = wire
	// bytes, framing included).
	StageSend
	// StageSendError is a failed export send or redial.
	StageSendError
	// StageBackoff is an export skipped because the reconnect backoff
	// window had not elapsed.
	StageBackoff
	// StageReconnect is a successful exporter redial after a broken
	// connection.
	StageReconnect
	// StageReceive is one batch frame read and merged by the collector.
	StageReceive
	// StageCommit is one epoch appended to the flow store.
	StageCommit
	// StageQuery is one store query (top-k, timeline, changers).
	StageQuery
	// StagePacketSpan is a sampled hot-path span: Count packets measured,
	// Dur the per-packet latency in nanoseconds.
	StagePacketSpan
	// StageAggregate is one batch folded into the fleet tier's per-site
	// and network-wide views (Count = records, Dur = fold time).
	StageAggregate
	// StageDetect is one batch driven through the fleet's streaming
	// detectors (Count = records observed, Dur = detector time).
	StageDetect
	// StageAlert is one detector alert admitted to the fleet alert ring
	// (Count = alerts in this batch).
	StageAlert
	numStages
)

var stageNames = [numStages]string{
	stageInvalid:    "invalid",
	StageCut:        "cut",
	StageEncode:     "encode",
	StageSend:       "send",
	StageSendError:  "send_error",
	StageBackoff:    "backoff",
	StageReconnect:  "reconnect",
	StageReceive:    "receive",
	StageCommit:     "commit",
	StageQuery:      "query",
	StagePacketSpan: "packet_span",
	StageAggregate:  "aggregate",
	StageDetect:     "detect",
	StageAlert:      "alert",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// ParseStage maps a stage name back to its constant (the inverse of
// String, for decoding saved dumps). Unknown names return 0, false.
func ParseStage(name string) (Stage, bool) {
	for i := 1; i < len(stageNames); i++ {
		if stageNames[i] == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Event is one decoded recorder entry.
type Event struct {
	// At is the event time in Unix nanoseconds, advanced monotonically
	// from the recorder's construction instant — wall-anchored so events
	// from different processes on one host line up.
	At int64 `json:"at_unix_ns"`
	// Epoch is the lifecycle id the event belongs to (0 for events with
	// no epoch: packet spans, queries).
	Epoch int64 `json:"epoch,omitempty"`
	// Stage is the lifecycle step.
	Stage Stage `json:"-"`
	// StageName is Stage rendered for the JSON dump.
	StageName string `json:"stage"`
	// Worker is the ring the event was recorded on (its worker index;
	// the control ring records as the highest index).
	Worker int `json:"worker"`
	// Count is the stage's unit count: flows in a snapshot/batch/commit,
	// packets in a span.
	Count uint32 `json:"count,omitempty"`
	// Bytes is the stage's byte volume, when meaningful.
	Bytes uint64 `json:"bytes,omitempty"`
	// Dur is the stage's duration in nanoseconds (per-packet latency for
	// spans).
	Dur uint64 `json:"dur_ns,omitempty"`
}

// slot is one seqlock-protected ring entry. seq is odd while a writer is
// mid-update; readers that observe an odd or changed seq skip the slot.
type slot struct {
	seq   atomic.Uint64
	at    atomic.Int64
	epoch atomic.Int64
	meta  atomic.Uint64 // stage<<56 | worker<<40 | count
	bytes atomic.Uint64
	dur   atomic.Uint64
}

// ring is one fixed-size event buffer. pos is the count of events ever
// written; writers reserve slot pos%len with one fetch-add, so the ring
// is multi-writer safe (two writers collide on a slot only when one lags
// a full ring behind; the later one finds the slot's seq odd, or loses
// the compare-and-swap that opens it, and drops its event).
type ring struct {
	pos atomic.Uint64
	_   [56]byte // keep the hot write cursor on its own cache line
	s   []slot
	_   [40]byte // pad to 128: adjacent rings in a slice must not false-share
}

// record writes one event. Alloc-free and hash-free: the hot path's
// sampled spans come through here. The writer opens the slot by moving
// its seq from even q to odd q+1 with one compare-and-swap, so only one
// writer at a time holds it; a writer that finds the slot held drops its
// event rather than interleave stores with the holder.
func (r *ring) record(at, epoch int64, stage Stage, worker int, count uint32, bytes, dur uint64) {
	i := r.pos.Add(1) - 1
	s := &r.s[i&uint64(len(r.s)-1)]
	q := s.seq.Load()
	if q&1 != 0 || !s.seq.CompareAndSwap(q, q+1) {
		return
	}
	s.at.Store(at)
	s.epoch.Store(epoch)
	s.meta.Store(uint64(stage)<<56 | uint64(uint16(worker))<<40 | uint64(count))
	s.bytes.Store(bytes)
	s.dur.Store(dur)
	s.seq.Store(q + 2)
}

// snapshot appends the ring's stable events to out.
func (r *ring) snapshot(out []Event) []Event {
	for i := range r.s {
		s := &r.s[i]
		for attempt := 0; attempt < 3; attempt++ {
			seq := s.seq.Load()
			if seq == 0 || seq&1 != 0 {
				break // never written, or a writer is mid-update
			}
			ev := Event{
				At:    s.at.Load(),
				Epoch: s.epoch.Load(),
				Bytes: s.bytes.Load(),
				Dur:   s.dur.Load(),
			}
			meta := s.meta.Load()
			if s.seq.Load() != seq {
				continue // torn read: a writer overtook us, retry
			}
			ev.Stage = Stage(meta >> 56)
			ev.Worker = int(meta >> 40 & 0xFFFF)
			ev.Count = uint32(meta)
			if ev.Stage == stageInvalid || ev.Stage >= numStages {
				break
			}
			ev.StageName = ev.Stage.String()
			out = append(out, ev)
			break
		}
	}
	return out
}

// Handle is a recording endpoint bound to one ring of a Recorder. The
// zero Handle is a no-op recorder, so components can hold one
// unconditionally.
type Handle struct {
	rec    *Recorder
	r      *ring
	worker int
}

// Span records a sampled hot-path span: n packets measured at perPktNanos
// each, stamped at t0 (the sample's own clock read — Span reads no clock
// of its own). Hash-free, guarded by the imvet hotpath gate on the
// //im:hotpath call graph; alloc-free, witnessed by TestSpanZeroAllocs.
func (h Handle) Span(t0 time.Time, n uint32, perPktNanos uint64) {
	if h.rec == nil {
		return
	}
	h.r.record(h.rec.nanosAt(t0), 0, StagePacketSpan, h.worker, n, 0, perPktNanos)
}

// Event records one lifecycle event, stamped now. Control-plane only —
// it may take the recorder's SLO lock for cut/commit bookkeeping.
func (h Handle) Event(stage Stage, epoch int64, count uint32, bytes, durNanos uint64) {
	if h.rec == nil {
		return
	}
	at := h.rec.now()
	h.r.record(at, epoch, stage, h.worker, count, bytes, durNanos)
	h.rec.noteStage(stage, epoch, at, durNanos)
}

// EventAt is Event with the caller's own timestamp (a time.Time captured
// at the stage's start), for callers that already read the clock to
// measure the stage's duration.
func (h Handle) EventAt(t0 time.Time, stage Stage, epoch int64, count uint32, bytes, durNanos uint64) {
	if h.rec == nil {
		return
	}
	at := h.rec.nanosAt(t0)
	h.r.record(at, epoch, stage, h.worker, count, bytes, durNanos)
	h.rec.noteStage(stage, epoch, at, durNanos)
}

// Recorder returns the recorder this handle records into (nil for the
// zero Handle).
func (h Handle) Recorder() *Recorder { return h.rec }

// sloBuckets is the power-of-two latency resolution of the cut→commit
// tracker: bucket i covers (2^(i-1)-1, 2^i-1] nanoseconds, the last
// bucket is the overflow. 41 finite buckets reach ~18 minutes.
const sloBuckets = 41

// cutMark remembers one recent epoch cut for cut→commit pairing.
type cutMark struct{ epoch, at int64 }

// sloTracker pairs cut and commit events per epoch and keeps the
// cut→commit latency distribution against a configurable budget.
type sloTracker struct {
	budget atomic.Int64 // detection-delay budget in nanoseconds; 0 = unset
	count  atomic.Uint64
	last   atomic.Int64 // most recent cut→commit latency
	lat    [sloBuckets + 1]atomic.Uint64

	mu   sync.Mutex
	cuts [64]cutMark // ring of recent cut marks
	n    int
}

func (t *sloTracker) noteCut(epoch, at int64) {
	t.mu.Lock()
	t.cuts[t.n%len(t.cuts)] = cutMark{epoch: epoch, at: at}
	t.n++
	t.mu.Unlock()
}

// noteCommit pairs a commit with its cut, if the cut is still remembered.
func (t *sloTracker) noteCommit(epoch, at int64, dur uint64) {
	t.mu.Lock()
	var cutAt int64 = -1
	for i := range t.cuts {
		if t.cuts[i].epoch == epoch && t.cuts[i].at != 0 {
			cutAt = t.cuts[i].at
			break
		}
	}
	t.mu.Unlock()
	if cutAt < 0 {
		return
	}
	lat := at + int64(dur) - cutAt
	if lat < 0 {
		lat = 0
	}
	idx := bits.Len64(uint64(lat))
	if idx > sloBuckets {
		idx = sloBuckets
	}
	t.lat[idx].Add(1)
	t.count.Add(1)
	t.last.Store(lat)
}

// p99 returns the tracked distribution's 99th-percentile cut→commit
// latency in nanoseconds (0 with no completed epochs).
func (t *sloTracker) p99() uint64 { return t.quantile(0.99) }

func (t *sloTracker) quantile(q float64) uint64 {
	total := t.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i := 0; i <= sloBuckets; i++ {
		cum += t.lat[i].Load()
		if cum >= target {
			return 1<<uint(i) - 1
		}
	}
	return 1<<sloBuckets - 1
}

// burn returns p99 over the budget (0 with no budget or no data): values
// above 1.0 mean the detection-delay SLO is being blown.
func (t *sloTracker) burn() float64 {
	b := t.budget.Load()
	if b <= 0 {
		return 0
	}
	return float64(t.p99()) / float64(b)
}

// stageMetrics is one registry binding: per-stage duration histogram
// shards the recorder pushes lifecycle durations into. It points into the
// histograms, never at the registry, so it does not keep the registry alive.
type stageMetrics struct {
	stage [numStages]telemetry.HistogramShard
}

// binding lives exactly as long as its registry: only the registry's SLO
// gauges reach it, so its finalizer runs once the registry is unreachable
// and unbinds sm. (A finalizer on the registry itself could collide with a
// caller's and would never run for a registry inside a reference cycle.)
type binding struct {
	r  *Recorder
	sm *stageMetrics
}

// Recorder is a set of per-worker event rings plus one control ring for
// lifecycle events, with derived telemetry and SLO state.
type Recorder struct {
	rings  []ring // workers..., control last
	base   int64
	anchor time.Time

	mu   sync.Mutex
	regs []*stageMetrics
	tm   atomic.Pointer[[]*stageMetrics]
	slo  sloTracker
}

// DefaultRingEvents is the per-ring capacity when NewRecorder is given 0.
const DefaultRingEvents = 2048

// NewRecorder builds a recorder with one span ring per worker plus a
// control ring, each holding perRing events (rounded up to a power of
// two; 0 means DefaultRingEvents).
func NewRecorder(workers, perRing int) *Recorder {
	if workers < 1 {
		workers = 1
	}
	if perRing <= 0 {
		perRing = DefaultRingEvents
	}
	size := 1
	for size < perRing {
		size <<= 1
	}
	t := time.Now()
	r := &Recorder{
		rings:  make([]ring, workers+1),
		base:   t.UnixNano(),
		anchor: t,
	}
	for i := range r.rings {
		r.rings[i].s = make([]slot, size)
	}
	return r
}

var (
	defaultOnce sync.Once
	defaultRec  *Recorder
)

// Default returns the process-wide recorder every engine, exporter,
// collector, and store records into unless explicitly rebound — the
// always-on discipline: construction cost is a few hundred KB once, and
// recording is a handful of atomic stores on sampled or per-epoch paths.
func Default() *Recorder {
	defaultOnce.Do(func() { defaultRec = NewRecorder(8, 0) })
	return defaultRec
}

// Handle returns the recording endpoint for worker w (modulo the worker
// ring count).
func (r *Recorder) Handle(w int) Handle {
	if w < 0 {
		w = 0
	}
	i := w % (len(r.rings) - 1)
	return Handle{rec: r, r: &r.rings[i], worker: i}
}

// Control returns the control-plane endpoint (epoch lifecycle events).
func (r *Recorder) Control() Handle {
	i := len(r.rings) - 1
	return Handle{rec: r, r: &r.rings[i], worker: i}
}

// Workers returns the recorder's span ring count.
func (r *Recorder) Workers() int { return len(r.rings) - 1 }

// now returns the current recorder timestamp: Unix nanoseconds advanced
// on the monotonic clock from the construction instant.
func (r *Recorder) now() int64 { return r.base + int64(time.Since(r.anchor)) }

// nanosAt converts a caller-captured time.Time to the recorder timebase
// without reading the clock again.
func (r *Recorder) nanosAt(t time.Time) int64 { return r.base + int64(t.Sub(r.anchor)) }

// SetBudget sets the detection-delay budget the SLO tracker burns
// against: the cut→commit latency the deployment promises (0 disables
// burn computation).
func (r *Recorder) SetBudget(d time.Duration) { r.slo.budget.Store(int64(d)) }

// Budget returns the configured detection-delay budget.
func (r *Recorder) Budget() time.Duration { return time.Duration(r.slo.budget.Load()) }

// noteStage feeds derived surfaces: per-stage duration histograms on
// every bound registry, and the SLO tracker for cut/commit pairs.
func (r *Recorder) noteStage(stage Stage, epoch, at int64, dur uint64) {
	if trace.IsEnabled() {
		// Lifecycle events also land in any live runtime/trace capture
		// (go tool trace), so epoch stages line up with scheduler and GC
		// activity. Control-plane only: sampled spans never come here.
		trace.Log(context.Background(), "flight", stage.String())
	}
	if tm := r.tm.Load(); tm != nil {
		for _, sm := range *tm {
			sm.stage[stage].Observe(dur)
		}
	}
	switch stage {
	case StageCut:
		r.slo.noteCut(epoch, at)
	case StageCommit:
		r.slo.noteCommit(epoch, at, dur)
	}
}

// Instrument binds reg to the recorder: every lifecycle event's duration
// is observed into instameasure_epoch_stage_seconds{stage=...} on reg,
// and the SLO tracker's state is exposed as gauges. Idempotent per
// registry; a recorder can feed several registries, and stops feeding
// each once nothing else reaches it — a process that builds an engine per
// run does not keep every run's registry alive in flight.Default(). A
// registry follows the last recorder that instrumented it: its SLO gauges
// are replaced, so the earlier recorder's binding is released.
func (r *Recorder) Instrument(reg *telemetry.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sm := &stageMetrics{}
	for st := StageCut; st < numStages; st++ {
		if st == StagePacketSpan {
			continue // spans are covered by process_latency_ns
		}
		// 34 finite buckets reach ~8.5 s of stage latency in nanoseconds;
		// the 1e-9 scale renders the bounds in Prometheus-conventional
		// seconds.
		sm.stage[st] = reg.HistogramScaled("epoch_stage_seconds",
			"Epoch lifecycle stage duration in seconds, by stage.",
			34, 1e-9, "stage", st.String()).Shard(0)
	}
	for _, x := range r.regs {
		if x.stage == sm.stage {
			return // reg handed back the histograms it already feeds
		}
	}
	r.setRegs(append(slices.Clone(r.regs), sm))
	b := &binding{r: r, sm: sm}
	runtime.SetFinalizer(b, func(b *binding) { b.r.release(b.sm) })

	reg.GaugeFunc("slo_epoch_commit_p99_seconds",
		"p99 cut-to-commit latency over recent epochs (the measured detection delay).",
		func() float64 { return float64(b.r.slo.p99()) * 1e-9 })
	reg.GaugeFunc("slo_detection_delay_budget_seconds",
		"Configured detection-delay budget (0 = unset).",
		func() float64 { return float64(b.r.slo.budget.Load()) * 1e-9 })
	reg.GaugeFunc("slo_burn",
		"p99 cut-to-commit latency over the detection-delay budget (>1 = SLO blown; 0 = no budget).",
		func() float64 { return b.r.slo.burn() })
}

// release unbinds sm once its registry has been collected.
func (r *Recorder) release(sm *stageMetrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setRegs(slices.DeleteFunc(slices.Clone(r.regs), func(x *stageMetrics) bool { return x == sm }))
}

// setRegs publishes a new binding list (noteStage reads it lock-free, so
// it is replaced, never edited). Callers hold r.mu.
func (r *Recorder) setRegs(regs []*stageMetrics) {
	r.regs = regs
	r.tm.Store(&regs)
}

// Events returns every stable event currently held in the rings, oldest
// first (by recorder timestamp).
func (r *Recorder) Events() []Event {
	var out []Event
	for i := range r.rings {
		out = r.rings[i].snapshot(out)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Epoch != out[j].Epoch {
			return out[i].Epoch < out[j].Epoch
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// SLOState is the tracker's current view, as surfaced in dumps.
type SLOState struct {
	BudgetNS int64   `json:"budget_ns"`
	P99NS    uint64  `json:"p99_ns"`
	LastNS   int64   `json:"last_cut_to_commit_ns"`
	Epochs   uint64  `json:"epochs_measured"`
	Burn     float64 `json:"burn"`
}

// SLO returns the tracker's current state.
func (r *Recorder) SLO() SLOState {
	return SLOState{
		BudgetNS: r.slo.budget.Load(),
		P99NS:    r.slo.p99(),
		LastNS:   r.slo.last.Load(),
		Epochs:   r.slo.count.Load(),
		Burn:     r.slo.burn(),
	}
}
