package flight

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// StageMark is one lifecycle event placed on an epoch's timeline.
type StageMark struct {
	Stage     Stage  `json:"-"`
	StageName string `json:"stage"`
	At        int64  `json:"at_unix_ns"`
	Dur       uint64 `json:"dur_ns,omitempty"`
	Count     uint32 `json:"count,omitempty"`
	Bytes     uint64 `json:"bytes,omitempty"`
	Worker    int    `json:"worker"`
}

// EpochTimeline is one epoch's reconstructed journey through the
// pipeline, ordered by timestamp.
type EpochTimeline struct {
	Epoch  int64       `json:"epoch"`
	Stages []StageMark `json:"stages"`
	// Complete reports whether both the cut and the commit were observed
	// — the ends of the detection-delay interval.
	Complete bool `json:"complete"`
	// CutToCommitNS is the measured detection delay (commit end minus
	// cut), present only when Complete.
	CutToCommitNS int64 `json:"cut_to_commit_ns,omitempty"`
}

// Dump is the /debug/flight payload: the raw events plus the per-epoch
// reconstruction and SLO state. It round-trips through JSON so wsafdump
// can re-render a saved dump offline.
type Dump struct {
	TakenUnixNS int64           `json:"taken_unix_ns"`
	Events      []Event         `json:"events"`
	Epochs      []EpochTimeline `json:"epochs"`
	SLO         SLOState        `json:"slo"`
}

// maxDumpEpochs bounds the reconstruction in a dump; the newest epochs
// win (the rings themselves already bound the raw events).
const maxDumpEpochs = 64

// Snapshot merges the recorders' current events into one dump. Passing
// both sides of an exporter→collector pair (or dumps from two processes,
// via MergeEvents) stitches each epoch's cross-process timeline together,
// keyed by the epoch id the wire format carries.
func Snapshot(recs ...*Recorder) Dump {
	var events []Event
	var slo SLOState
	for i, r := range recs {
		if r == nil {
			continue
		}
		events = append(events, r.Events()...)
		s := r.SLO()
		if i == 0 || (slo.Epochs == 0 && s.Epochs > 0) {
			slo = s
		}
	}
	sortEvents(events)
	return Dump{
		TakenUnixNS: time.Now().UnixNano(),
		Events:      events,
		Epochs:      Reconstruct(events),
		SLO:         slo,
	}
}

func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		if events[i].Epoch != events[j].Epoch {
			return events[i].Epoch < events[j].Epoch
		}
		return events[i].Stage < events[j].Stage
	})
}

// Reconstruct groups lifecycle events by epoch id into ordered timelines,
// newest-epoch-last, keeping at most maxDumpEpochs epochs. Events with no
// epoch (spans, queries) are left out — they live in the raw
// event list.
func Reconstruct(events []Event) []EpochTimeline {
	byEpoch := make(map[int64]*EpochTimeline)
	var order []int64
	for _, ev := range events {
		if ev.Epoch == 0 || ev.Stage == StagePacketSpan {
			continue
		}
		tl, ok := byEpoch[ev.Epoch]
		if !ok {
			tl = &EpochTimeline{Epoch: ev.Epoch}
			byEpoch[ev.Epoch] = tl
			order = append(order, ev.Epoch)
		}
		tl.Stages = append(tl.Stages, StageMark{
			Stage:     ev.Stage,
			StageName: ev.Stage.String(),
			At:        ev.At,
			Dur:       ev.Dur,
			Count:     ev.Count,
			Bytes:     ev.Bytes,
			Worker:    ev.Worker,
		})
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	if len(order) > maxDumpEpochs {
		order = order[len(order)-maxDumpEpochs:]
	}
	out := make([]EpochTimeline, 0, len(order))
	for _, e := range order {
		tl := byEpoch[e]
		sort.Slice(tl.Stages, func(i, j int) bool {
			if tl.Stages[i].At != tl.Stages[j].At {
				return tl.Stages[i].At < tl.Stages[j].At
			}
			return tl.Stages[i].Stage < tl.Stages[j].Stage
		})
		var cutAt, commitEnd int64 = -1, -1
		for _, m := range tl.Stages {
			switch m.Stage {
			case StageCut:
				if cutAt < 0 {
					cutAt = m.At
				}
			case StageCommit:
				end := m.At + int64(m.Dur)
				if end > commitEnd {
					commitEnd = end
				}
			}
		}
		if cutAt >= 0 && commitEnd >= 0 {
			tl.Complete = true
			d := commitEnd - cutAt
			if d < 0 {
				d = 0
			}
			tl.CutToCommitNS = d
		}
		out = append(out, *tl)
	}
	return out
}

// MergeEvents combines events from several dumps (e.g. the exporter's and
// the collector's processes) into one sorted stream for Reconstruct.
func MergeEvents(dumps ...Dump) []Event {
	var events []Event
	for _, d := range dumps {
		events = append(events, d.Events...)
	}
	for i := range events {
		if events[i].Stage == stageInvalid {
			if st, ok := ParseStage(events[i].StageName); ok {
				events[i].Stage = st // decoded from JSON: Stage is not serialized
			}
		}
	}
	sortEvents(events)
	return events
}

// WriteTimeline renders d as a human-oriented text timeline, the
// ?fmt=text view of /debug/flight and the wsafdump -flight output.
func WriteTimeline(w io.Writer, d Dump) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "flight recorder: %d events, %d epochs\n", len(d.Events), len(d.Epochs))
	if d.SLO.Epochs > 0 || d.SLO.BudgetNS > 0 {
		fmt.Fprintf(ew, "slo: p99 cut→commit %s over %d epochs", fmtNanos(int64(d.SLO.P99NS)), d.SLO.Epochs)
		if d.SLO.BudgetNS > 0 {
			fmt.Fprintf(ew, ", budget %s, burn %.3f", fmtNanos(d.SLO.BudgetNS), d.SLO.Burn)
		}
		fmt.Fprintf(ew, "\n")
	}
	for i := range d.Epochs {
		tl := &d.Epochs[i]
		fmt.Fprintf(ew, "\nepoch %d", tl.Epoch)
		if tl.Complete {
			fmt.Fprintf(ew, "  cut→commit %s", fmtNanos(tl.CutToCommitNS))
		} else {
			fmt.Fprintf(ew, "  [incomplete]")
		}
		fmt.Fprintf(ew, "\n")
		var t0 int64
		if len(tl.Stages) > 0 {
			t0 = tl.Stages[0].At
		}
		for _, m := range tl.Stages {
			fmt.Fprintf(ew, "  %-10s +%-10s", m.StageName, fmtNanos(m.At-t0))
			if m.Dur > 0 {
				fmt.Fprintf(ew, " dur %-10s", fmtNanos(int64(m.Dur)))
			}
			if m.Count > 0 {
				fmt.Fprintf(ew, " n=%-8d", m.Count)
			}
			if m.Bytes > 0 {
				fmt.Fprintf(ew, " %s", fmtBytes(m.Bytes))
			}
			fmt.Fprintf(ew, "\n")
		}
	}
	// Sampled hot-path spans, most recent last.
	var spans int
	for _, ev := range d.Events {
		if ev.Stage == StagePacketSpan {
			spans++
		}
	}
	if spans > 0 {
		fmt.Fprintf(ew, "\n%d sampled packet spans (latest 8):\n", spans)
		shown := 0
		for i := len(d.Events) - 1; i >= 0 && shown < 8; i-- {
			ev := d.Events[i]
			if ev.Stage != StagePacketSpan {
				continue
			}
			fmt.Fprintf(ew, "  worker %d  %d pkts  %s/pkt\n", ev.Worker, ev.Count, fmtNanos(int64(ev.Dur)))
			shown++
		}
	}
	return ew.err
}

// errWriter mirrors the telemetry package's latch-first-error writer.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// fmtNanos renders a nanosecond quantity with a readable unit.
func fmtNanos(ns int64) string {
	return time.Duration(ns).String()
}

// fmtBytes renders a byte count with a binary-prefix unit.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
