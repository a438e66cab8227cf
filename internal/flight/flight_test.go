package flight

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"instameasure/internal/telemetry"
)

func TestStageRoundTrip(t *testing.T) {
	for st := StageCut; st < numStages; st++ {
		name := st.String()
		if name == "unknown" || name == "invalid" {
			t.Fatalf("stage %d renders as %q", st, name)
		}
		back, ok := ParseStage(name)
		if !ok || back != st {
			t.Errorf("ParseStage(%q) = %v, %v; want %v, true", name, back, ok, st)
		}
	}
	if _, ok := ParseStage("nonsense"); ok {
		t.Error("ParseStage accepted an unknown name")
	}
}

func TestRecorderRecordAndEvents(t *testing.T) {
	r := NewRecorder(2, 8)
	h := r.Handle(0)
	ctl := r.Control()

	ctl.Event(StageCut, 5, 100, 0, 0)
	ctl.Event(StageCommit, 5, 100, 4096, 1000)
	h.Span(time.Now(), 64, 120)

	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("Events() = %d events, want 3", len(events))
	}
	var stages []string
	for _, ev := range events {
		stages = append(stages, ev.StageName)
	}
	for _, want := range []string{"cut", "commit", "packet_span"} {
		found := false
		for _, s := range stages {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Errorf("stages %v missing %q", stages, want)
		}
	}
	for _, ev := range events {
		if ev.Stage == StagePacketSpan {
			if ev.Count != 64 || ev.Dur != 120 {
				t.Errorf("span event = %+v, want count 64 dur 120", ev)
			}
			if ev.Worker != 0 {
				t.Errorf("span recorded on worker %d, want 0", ev.Worker)
			}
		}
		if ev.Stage == StageCommit && ev.Bytes != 4096 {
			t.Errorf("commit bytes = %d, want 4096", ev.Bytes)
		}
	}
}

func TestRingWrapsAtCapacity(t *testing.T) {
	r := NewRecorder(1, 4) // 4-slot rings
	ctl := r.Control()
	for i := int64(1); i <= 10; i++ {
		ctl.Event(StageReceive, i, 1, 0, 0)
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("wrapped ring holds %d events, want 4", len(events))
	}
	// The newest 4 epochs survive.
	for _, ev := range events {
		if ev.Epoch < 7 {
			t.Errorf("stale epoch %d survived the wrap", ev.Epoch)
		}
	}
}

func TestZeroHandleIsNoOp(t *testing.T) {
	var h Handle
	h.Span(time.Now(), 1, 1) // must not panic
	h.Event(StageCut, 1, 0, 0, 0)
	h.EventAt(time.Now(), StageCommit, 1, 0, 0, 0)
	if h.Recorder() != nil {
		t.Error("zero Handle has a recorder")
	}
}

// TestConcurrentRecordAndSnapshot is the torn-read witness for the slot
// seqlock. Writers collide on a one-slot ring, each recording events whose
// fields all carry one counter value, while a reader checks that every
// event it gets back carries a single value. A writer that opens the slot
// without excluding the others, or a reader that does not revalidate seq
// after its data loads, returns a mix of two events here.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	const writers = 2
	r := &ring{s: make([]slot, 1)}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := uint64(w + 1); !stop.Load(); v += writers {
				r.record(int64(v), int64(v), StagePacketSpan, w, uint32(v), v, v)
			}
		}(w)
	}
	reads, torn := 0, 0
	buf := make([]Event, 0, 1)
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			for _, ev := range r.snapshot(buf[:0]) {
				reads++
				v := uint64(ev.Count)
				if ev.At != int64(v) || ev.Epoch != int64(v) || ev.Bytes != v || ev.Dur != v {
					if torn++; torn <= 3 {
						t.Errorf("torn event: %+v", ev)
					}
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if torn > 0 {
		t.Errorf("%d of %d reads returned a torn event", torn, reads)
	}
	if reads == 0 {
		t.Error("the reader never saw a stable event")
	}
}

func TestSLOTracker(t *testing.T) {
	r := NewRecorder(1, 16)
	r.SetBudget(time.Millisecond)
	ctl := r.Control()

	base := r.now()
	r.noteStage(StageCut, 42, base, 0)
	r.noteStage(StageCommit, 42, base+500_000, 100_000) // 600µs cut→commit

	s := r.SLO()
	if s.Epochs != 1 {
		t.Fatalf("epochs measured = %d, want 1", s.Epochs)
	}
	if s.LastNS != 600_000 {
		t.Errorf("last cut→commit = %dns, want 600000", s.LastNS)
	}
	// p99 is bucketed to the next 2^k-1 boundary.
	if s.P99NS < 600_000 || s.P99NS > 2*600_000 {
		t.Errorf("p99 = %dns, want within [600µs, 1.2ms]", s.P99NS)
	}
	if s.BudgetNS != int64(time.Millisecond) {
		t.Errorf("budget = %d, want 1ms", s.BudgetNS)
	}
	if s.Burn <= 0 {
		t.Errorf("burn = %v, want positive with budget set", s.Burn)
	}

	// A commit with no remembered cut is ignored.
	ctl.Event(StageCommit, 999, 1, 0, 0)
	if got := r.SLO().Epochs; got != 1 {
		t.Errorf("orphan commit counted: epochs = %d", got)
	}
}

func TestReconstructCompleteTimeline(t *testing.T) {
	r := NewRecorder(1, 32)
	ctl := r.Control()
	ctl.Event(StageCut, 7, 100, 0, 0)
	ctl.Event(StageEncode, 7, 100, 0, 2000)
	ctl.Event(StageSend, 7, 100, 8192, 3000)
	ctl.Event(StageReceive, 7, 100, 0, 1000)
	ctl.Event(StageCommit, 7, 100, 4096, 5000)
	ctl.Event(StageCut, 8, 90, 0, 0) // epoch 8 never commits

	d := Snapshot(r)
	if len(d.Epochs) != 2 {
		t.Fatalf("reconstructed %d epochs, want 2", len(d.Epochs))
	}
	e7, e8 := d.Epochs[0], d.Epochs[1]
	if e7.Epoch != 7 || e8.Epoch != 8 {
		t.Fatalf("epoch order = %d, %d; want 7, 8", e7.Epoch, e8.Epoch)
	}
	if !e7.Complete {
		t.Error("epoch 7 saw cut and commit but is not Complete")
	}
	if e7.CutToCommitNS <= 0 {
		t.Error("complete epoch has no cut→commit latency")
	}
	if len(e7.Stages) != 5 {
		t.Errorf("epoch 7 has %d stages, want 5", len(e7.Stages))
	}
	if e8.Complete {
		t.Error("epoch 8 never committed but is Complete")
	}
}

func TestDumpJSONRoundTripAndMerge(t *testing.T) {
	r := NewRecorder(1, 16)
	ctl := r.Control()
	ctl.Event(StageCut, 3, 10, 0, 0)
	ctl.Event(StageCommit, 3, 10, 128, 500)

	raw, err := json.Marshal(Snapshot(r))
	if err != nil {
		t.Fatal(err)
	}
	var decoded Dump
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	// Stage is not serialized; MergeEvents re-derives it from StageName.
	events := MergeEvents(decoded)
	if len(events) != 2 {
		t.Fatalf("merged %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev.Stage == stageInvalid {
			t.Errorf("merge left stage unresolved for %q", ev.StageName)
		}
	}
	tls := Reconstruct(events)
	if len(tls) != 1 || !tls[0].Complete {
		t.Fatalf("re-reconstruction = %+v, want one complete epoch", tls)
	}
}

func TestWriteTimelinePropagatesWriterError(t *testing.T) {
	r := NewRecorder(1, 16)
	r.Control().Event(StageCut, 1, 1, 0, 0)
	d := Snapshot(r)
	werr := errors.New("pipe burst")
	if err := WriteTimeline(failWriter{werr}, d); !errors.Is(err, werr) {
		t.Errorf("WriteTimeline error = %v, want %v", err, werr)
	}
	var sb strings.Builder
	if err := WriteTimeline(&sb, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "epoch 1") {
		t.Errorf("timeline missing epoch header:\n%s", sb.String())
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestHandlerJSONAndText(t *testing.T) {
	r := NewRecorder(1, 16)
	ctl := r.Control()
	ctl.Event(StageCut, 11, 5, 0, 0)
	ctl.Event(StageCommit, 11, 5, 64, 300)
	h := NewHandler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	var d Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("JSON view does not decode: %v", err)
	}
	if len(d.Epochs) != 1 || d.Epochs[0].Epoch != 11 {
		t.Errorf("JSON view epochs = %+v, want epoch 11", d.Epochs)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight?fmt=text", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text view Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "epoch 11") {
		t.Errorf("text view missing epoch 11:\n%s", rec.Body.String())
	}
}

func TestHealthEndpoints(t *testing.T) {
	h := NewHealth()
	var fail error
	h.Register("store", func() error { return fail })
	h.Register("exporter", func() error { return nil })

	rec := httptest.NewRecorder()
	h.ReadyHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Errorf("all-healthy /readyz = %d, want 200", rec.Code)
	}

	fail = errors.New("disk full")
	rec = httptest.NewRecorder()
	h.ReadyHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Errorf("degraded /readyz = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "disk full") {
		t.Errorf("/readyz body lacks the probe error:\n%s", rec.Body.String())
	}

	// Liveness stays 200 while degraded.
	rec = httptest.NewRecorder()
	h.LiveHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("degraded /healthz = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "degraded") {
		t.Errorf("/healthz body does not say degraded:\n%s", rec.Body.String())
	}

	if names := h.ComponentNames(); len(names) != 2 || names[0] != "exporter" || names[1] != "store" {
		t.Errorf("ComponentNames = %v", names)
	}
}

func TestInstrumentRegistersStageHistogramsAndSLOGauges(t *testing.T) {
	r := NewRecorder(1, 16)
	reg := telemetry.NewRegistry("instameasure", 1)
	r.Instrument(reg)
	r.Instrument(reg) // idempotent per registry

	r.SetBudget(2 * time.Millisecond)
	ctl := r.Control()
	ctl.Event(StageCut, 1, 1, 0, 0)
	ctl.Event(StageCommit, 1, 1, 64, uint64(time.Millisecond))

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`instameasure_epoch_stage_seconds_bucket{stage="commit"`,
		"instameasure_slo_epoch_commit_p99_seconds",
		"instameasure_slo_detection_delay_budget_seconds",
		"instameasure_slo_burn",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("instrumented registry missing %q", want)
		}
	}
	if got := reg.Value("instameasure_slo_detection_delay_budget_seconds"); got != 0.002 {
		t.Errorf("budget gauge = %g, want 0.002", got)
	}
	if got := reg.Value("instameasure_slo_burn"); got <= 0 {
		t.Errorf("burn gauge = %g, want positive (p99 ~1ms vs 2ms budget)", got)
	}
}

// TestRingPadding: a recorder's rings sit side by side in a slice, so a
// ring must fill whole 64-byte lines, with the write cursor alone on the
// first. The padding is sized for 64-bit layouts.
func TestRingPadding(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("ring padding is sized for 64-bit layouts")
	}
	var r ring
	if size := unsafe.Sizeof(r); size%64 != 0 {
		t.Errorf("ring is %d bytes, not a whole number of 64-byte cache lines", size)
	}
	if off := unsafe.Offsetof(r.s); off != 64 {
		t.Errorf("slot slice sits at offset %d, sharing the write cursor's cache line", off)
	}
}

// TestSpanZeroAllocs: Handle.Span, the record seam the engine's
// //im:hotpath ProcessHashed calls on sampled bursts, allocates nothing —
// into a free slot, into a slot a concurrent writer holds open (the
// record is skipped), and through the zero Handle.
func TestSpanZeroAllocs(t *testing.T) {
	rec := NewRecorder(2, 64)
	h := rec.Handle(1)
	t0 := time.Now()
	var none Handle
	allocs := testing.AllocsPerRun(100, func() {
		for i := range 64 {
			h.Span(t0, uint32(i), 42)
		}
		// The next slot's writer is mid-update: the span is dropped.
		s := &h.r.s[h.r.pos.Load()&uint64(len(h.r.s)-1)]
		s.seq.Add(1)
		h.Span(t0, 1, 42)
		s.seq.Add(1)
		none.Span(t0, 1, 42)
	})
	if allocs != 0 {
		t.Fatalf("Span allocates %.2f objects per run, want 0", allocs)
	}
}
