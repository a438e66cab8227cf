package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around calls into each package's exported
// functions; the program itself is not instrumented.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	Start    int64  `json:"start_ns"` // since the recorder was created
	End      int64  `json:"end_ns"`
	// N is the number of calls or items the span covers (4096 for a
	// hot-path chunk, the record count for a per-batch span).
	N int64 `json:"n"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id, or -1 on a nil recorder.
func (r *recorder) begin(name string, parent int32, pass int) int32 {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Pass: pass, Start: now})
	r.mu.Unlock()
	return id
}

// end closes span id, which covered n calls or items.
func (r *recorder) end(id int32, n int64) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End, r.spans[id].N = now, n
	r.mu.Unlock()
}

// add records a span whose ends were stamped elsewhere (an interval that
// starts on one goroutine and ends on another).
func (r *recorder) add(name string, parent int32, pass int, start, end time.Time, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: int32(len(r.spans)), Parent: parent, Name: name, Workload: r.workload,
		Pass: pass, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), N: n})
	r.mu.Unlock()
}

// selfPerItem returns, for every span called name, its self time — its
// duration minus the part its children cover — per item, in nanoseconds.
func (r *recorder) selfPerItem(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int32]int64)
	for i := range r.spans {
		if s := &r.spans[i]; s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name && s.N > 0 && s.End > 0 {
			out = append(out, float64(s.End-s.Start-child[s.ID])/float64(s.N))
		}
	}
	return out
}

// durations returns the raw length, in nanoseconds, of every span called
// name — for intervals whose cost is per call, not per item.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// rate is the median self time per item over the spans called name; 0
// when the layer recorded none (it is not on this workload's path).
func (r *recorder) rate(name string) float64 { return median(r.selfPerItem(name)) }

// write dumps every span as JSON, once, when the run ends.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	err = json.NewEncoder(f).Encode(r.spans)
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// quantile returns the q-quantile of xs by linear interpolation, 0 for
// an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
