// Package telemetry is a dependency-free metrics library for the hot
// paths of the measurement engine: lock-free atomic counters, gauges, and
// power-of-two-bucketed histograms, grouped in a Registry that renders
// Prometheus text exposition format and plugs into expvar.
//
// Metrics are sharded: every metric owns one cache-line-padded cell per
// worker shard, so concurrent workers never contend on (or false-share) a
// counter line. Hot-path writers obtain a shard handle once
// (Counter.Shard, Histogram.Shard, ...) and update through it; scrapers
// sum the cells with atomic loads. Two update disciplines are supported
// per cell:
//
//   - Add/Inc/Observe: atomic read-modify-write, safe for any number of
//     writers per shard. Used on rare paths (sketch recycles, WSAF
//     updates, export batches).
//   - Set: a plain atomic store publishing a monotonically increasing
//     total maintained by a single writer. This is the per-packet
//     discipline: the engine keeps its private counter and publishes it
//     with one MOV per packet — no LOCK prefix on the fast path.
//
// Registration is idempotent: asking for an existing name+labels returns
// the existing metric (and panics on a kind mismatch), so per-worker
// engines can share one registry without coordination.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// cell is one padded atomic slot. The padding keeps adjacent shards on
// separate cache lines (64-byte lines; 128 bytes guards against adjacent-
// line prefetchers on modern Intel parts).
type cell struct {
	v atomic.Uint64
	_ [120]byte
}

// metricKind discriminates registered metric types.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family identifies one metric inside a registry: the fully qualified
// name plus an optional pre-rendered label set.
type family struct {
	name   string // namespace_name, no labels
	help   string
	labels string // `{k="v",...}` or ""
	kind   metricKind
}

// Counter is a monotonically increasing sharded counter.
type Counter struct {
	family
	cells []cell
}

// CounterShard is a hot-path handle onto one shard of a Counter.
type CounterShard struct{ c *cell }

// Inc adds 1 (atomic read-modify-write; any number of writers).
func (s CounterShard) Inc() { s.c.v.Add(1) }

// Add adds n (atomic read-modify-write; any number of writers).
func (s CounterShard) Add(n uint64) { s.c.v.Add(n) }

// Set publishes total as the shard's value with a plain atomic store.
// Only valid when this shard has a single writer maintaining a
// monotonically increasing private total — the per-packet discipline.
func (s CounterShard) Set(total uint64) { s.c.v.Store(total) }

// Value returns the shard's current value.
func (s CounterShard) Value() uint64 { return s.c.v.Load() }

// Shard returns the handle for worker shard i (modulo the shard count).
func (c *Counter) Shard(i int) CounterShard {
	return CounterShard{&c.cells[i%len(c.cells)]}
}

// Inc adds 1 on shard 0 — convenience for unsharded callers.
func (c *Counter) Inc() { c.cells[0].v.Add(1) }

// Add adds n on shard 0.
func (c *Counter) Add(n uint64) { c.cells[0].v.Add(n) }

// Value sums all shards.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
}

// Gauge is a sharded gauge holding an int64 per shard; its rendered value
// is the sum of the shards (each worker publishes its own contribution,
// e.g. per-worker WSAF occupancy).
type Gauge struct {
	family
	cells []cell
}

// GaugeShard is a hot-path handle onto one shard of a Gauge.
type GaugeShard struct{ c *cell }

// Set publishes v as this shard's value (plain atomic store — single
// writer per shard).
func (s GaugeShard) Set(v int64) { s.c.v.Store(uint64(v)) }

// Add atomically adds d (may be negative; any number of writers).
func (s GaugeShard) Add(d int64) { s.c.v.Add(uint64(d)) }

// Value returns the shard's current value.
func (s GaugeShard) Value() int64 { return int64(s.c.v.Load()) }

// Shard returns the handle for worker shard i.
func (g *Gauge) Shard(i int) GaugeShard {
	return GaugeShard{&g.cells[i%len(g.cells)]}
}

// Set publishes v on shard 0.
func (g *Gauge) Set(v int64) { g.cells[0].v.Store(uint64(v)) }

// Value sums all shards.
func (g *Gauge) Value() int64 {
	var total int64
	for i := range g.cells {
		total += int64(g.cells[i].v.Load())
	}
	return total
}

// gaugeFunc is a computed gauge evaluated at scrape time.
type gaugeFunc struct {
	family
	mu sync.Mutex
	fn func() float64
}

func (g *gaugeFunc) value() float64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	return fn()
}

// Histogram is a sharded histogram with power-of-two buckets: bucket i
// covers values in (2^(i-1)-1, 2^i-1], i.e. upper bounds 0, 1, 3, 7, 15,
// ..., with a +Inf overflow bucket. The geometric buckets make Observe a
// single bits.Len64 — no search — and suit latency-in-nanoseconds and
// probe-length distributions equally.
type Histogram struct {
	family
	nBuckets  int           // finite buckets, excluding +Inf
	scaleBits atomic.Uint64 // render-time multiplier (float64 bits) for bounds and sum; 0 = raw integers
	shards    []histShard
}

// renderScale returns the multiplier applied to bounds and sum at render
// time (1 when unscaled).
func (h *Histogram) renderScale() float64 {
	s := math.Float64frombits(h.scaleBits.Load())
	if s <= 0 {
		return 1
	}
	return s
}

// histShard is one worker's histogram state. count and sum lead the
// bucket array; the whole shard is padded to its own cache lines.
type histShard struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets []cell
}

// HistogramShard is a hot-path handle onto one shard of a Histogram.
type HistogramShard struct {
	s        *histShard
	nBuckets int
}

// Observe records one value (atomic read-modify-write per field).
func (h HistogramShard) Observe(v uint64) {
	idx := bits.Len64(v)
	if idx > h.nBuckets {
		idx = h.nBuckets // +Inf bucket
	}
	h.s.buckets[idx].v.Add(1)
	h.s.count.Add(1)
	h.s.sum.Add(v)
}

// Shard returns the handle for worker shard i.
func (h *Histogram) Shard(i int) HistogramShard {
	return HistogramShard{&h.shards[i%len(h.shards)], h.nBuckets}
}

// Observe records one value on shard 0.
func (h *Histogram) Observe(v uint64) { h.Shard(0).Observe(v) }

// Count returns total observations across shards.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.shards {
		total += h.shards[i].count.Load()
	}
	return total
}

// Sum returns the sum of observed values across shards.
func (h *Histogram) Sum() uint64 {
	var total uint64
	for i := range h.shards {
		total += h.shards[i].sum.Load()
	}
	return total
}

// snapshot returns per-bucket totals (nBuckets+1 entries, +Inf last),
// count, and sum, each summed across shards.
func (h *Histogram) snapshot() (buckets []uint64, count, sum uint64) {
	buckets = make([]uint64, h.nBuckets+1)
	for i := range h.shards {
		s := &h.shards[i]
		count += s.count.Load()
		sum += s.sum.Load()
		for b := range s.buckets {
			buckets[b] += s.buckets[b].v.Load()
		}
	}
	return buckets, count, sum
}

// upperBound returns bucket i's inclusive upper bound, 2^i - 1.
func upperBound(i int) uint64 { return 1<<uint(i) - 1 }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed distribution — the upper bound of the first bucket whose
// cumulative count reaches q, in the histogram's rendered unit (bounds
// are multiplied by the scale of a scaled histogram). Returns 0 with no
// observations; the overflow bucket reports +Inf.
func (h *Histogram) Quantile(q float64) float64 {
	buckets, count, _ := h.snapshot()
	if count == 0 {
		return 0
	}
	target := uint64(q * float64(count))
	if target < 1 {
		target = 1
	}
	scale := h.renderScale()
	var cum uint64
	for i := 0; i < len(buckets)-1; i++ {
		cum += buckets[i]
		if cum >= target {
			return float64(upperBound(i)) * scale
		}
	}
	return math.Inf(1)
}

// Registry holds a namespace's metrics and renders them.
type Registry struct {
	namespace string
	shards    int

	mu      sync.RWMutex
	byKey   map[string]interface{} // name+labels -> *Counter | *Gauge | *gaugeFunc | *Histogram
	ordered []interface{}          // registration order
}

// NewRegistry builds a registry. namespace prefixes every metric name
// ("instameasure" -> "instameasure_packets_total"). shards is the number
// of per-metric cells — one per worker; values < 1 mean 1.
func NewRegistry(namespace string, shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{
		namespace: namespace,
		shards:    shards,
		byKey:     make(map[string]interface{}),
	}
}

// Shards returns the per-metric shard count.
func (r *Registry) Shards() int { return r.shards }

// fullName prefixes name with the registry namespace.
func (r *Registry) fullName(name string) string {
	if r.namespace == "" {
		return name
	}
	return r.namespace + "_" + name
}

// formatLabels renders k,v pairs as a Prometheus label set.
func formatLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", labels))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the existing metric for key, verifying its kind.
func (r *Registry) lookup(key string, kind metricKind) (interface{}, bool) {
	m, ok := r.byKey[key]
	if !ok {
		return nil, false
	}
	var have metricKind
	switch v := m.(type) {
	case *Counter:
		have = v.kind
	case *Gauge:
		have = v.kind
	case *gaugeFunc:
		have = v.kind
	case *Histogram:
		have = v.kind
	}
	if have != kind {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", key, kind, have))
	}
	return m, true
}

// Counter registers (or returns the existing) counter. labels are
// optional k,v pairs attached as constant Prometheus labels.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	full := r.fullName(name)
	key := full + formatLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(key, kindCounter); ok {
		return m.(*Counter)
	}
	c := &Counter{
		family: family{name: full, help: help, labels: formatLabels(labels), kind: kindCounter},
		cells:  make([]cell, r.shards),
	}
	r.byKey[key] = c
	r.ordered = append(r.ordered, c)
	return c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	full := r.fullName(name)
	key := full + formatLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(key, kindGauge); ok {
		return m.(*Gauge)
	}
	g := &Gauge{
		family: family{name: full, help: help, labels: formatLabels(labels), kind: kindGauge},
		cells:  make([]cell, r.shards),
	}
	r.byKey[key] = g
	r.ordered = append(r.ordered, g)
	return g
}

// GaugeFunc registers a computed gauge evaluated at scrape time. fn must
// be safe to call from the scraping goroutine. Re-registering the same
// name+labels replaces the function (a rebuilt pipeline re-binds its
// closures).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	full := r.fullName(name)
	key := full + formatLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(key, kindGaugeFunc); ok {
		g := m.(*gaugeFunc)
		g.mu.Lock()
		g.fn = fn
		g.mu.Unlock()
		return
	}
	g := &gaugeFunc{
		family: family{name: full, help: help, labels: formatLabels(labels), kind: kindGaugeFunc},
		fn:     fn,
	}
	r.byKey[key] = g
	r.ordered = append(r.ordered, g)
}

// Histogram registers (or returns the existing) power-of-two histogram
// with buckets finite buckets (upper bounds 0, 1, 3, ..., 2^(buckets-1)-1)
// plus +Inf. buckets < 1 means 28 (covers ~134 ms in nanoseconds).
func (r *Registry) Histogram(name, help string, buckets int, labels ...string) *Histogram {
	if buckets < 1 {
		buckets = 28
	}
	if buckets > 64 {
		buckets = 64
	}
	full := r.fullName(name)
	key := full + formatLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(key, kindHistogram); ok {
		return m.(*Histogram)
	}
	h := &Histogram{
		family:   family{name: full, help: help, labels: formatLabels(labels), kind: kindHistogram},
		nBuckets: buckets,
	}
	h.shards = make([]histShard, r.shards)
	for i := range h.shards {
		h.shards[i].buckets = make([]cell, buckets+1)
	}
	r.byKey[key] = h
	r.ordered = append(r.ordered, h)
	return h
}

// HistogramScaled registers (or returns the existing) power-of-two
// histogram whose rendered bucket bounds and sum are multiplied by scale.
// Observe still takes raw integers (e.g. nanoseconds) so the hot path
// stays a bits.Len64; with scale 1e-9 the exposition reads in
// Prometheus-conventional seconds. scale <= 0 means 1 (raw).
func (r *Registry) HistogramScaled(name, help string, buckets int, scale float64, labels ...string) *Histogram {
	h := r.Histogram(name, help, buckets, labels...)
	if scale > 0 && scale != 1 {
		h.scaleBits.Store(math.Float64bits(scale))
	}
	return h
}

// Value returns the summed value of every counter, gauge, or gauge-func
// series matching fullName; histograms contribute nothing. A bare family
// name ("instameasure_x_total") sums across all label children; a
// label-qualified series ("instameasure_x_total{kind=\"y\"}") selects
// exactly that child. It is the programmatic scrape used by CLI interim
// output and tests.
func (r *Registry) Value(fullName string) float64 {
	// Snapshot the metric list under the lock, then read values outside
	// it: gauge funcs run user callbacks, which must never execute under
	// r.mu (a callback that re-enters the registry would deadlock).
	r.mu.RLock()
	snapshot := make([]interface{}, len(r.ordered))
	copy(snapshot, r.ordered)
	r.mu.RUnlock()
	var total float64
	match := func(f *family) bool {
		return f.name == fullName || f.name+f.labels == fullName
	}
	for _, m := range snapshot {
		switch v := m.(type) {
		case *Counter:
			if match(&v.family) {
				total += float64(v.Value())
			}
		case *Gauge:
			if match(&v.family) {
				total += float64(v.Value())
			}
		case *gaugeFunc:
			if match(&v.family) {
				total += v.value()
			}
		}
	}
	return total
}

// Each calls fn for every scalar series (counters, gauges, gauge funcs)
// as name+labels and current value, in registration order.
func (r *Registry) Each(fn func(series string, value float64)) {
	r.mu.RLock()
	snapshot := make([]interface{}, len(r.ordered))
	copy(snapshot, r.ordered)
	r.mu.RUnlock()
	for _, m := range snapshot {
		switch v := m.(type) {
		case *Counter:
			fn(v.name+v.labels, float64(v.Value()))
		case *Gauge:
			fn(v.name+v.labels, float64(v.Value()))
		case *gaugeFunc:
			fn(v.name+v.labels, v.value())
		}
	}
}

// errWriter latches the first write error and suppresses all subsequent
// writes, so a render path built from many Fprintf calls needs a single
// error check at the end.
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

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): families grouped with one HELP/TYPE header,
// histogram buckets cumulative with le labels. The first error returned
// by w stops the render and is returned (a scraper hanging up mid-body
// is an error the caller decides about, not one to swallow).
func (r *Registry) WritePrometheus(w io.Writer) error {
	ew := &errWriter{w: w}
	w = ew
	r.mu.RLock()
	snapshot := make([]interface{}, len(r.ordered))
	copy(snapshot, r.ordered)
	r.mu.RUnlock()

	// Group children by family name, preserving first-seen order.
	type group struct {
		help    string
		kind    metricKind
		members []interface{}
	}
	var names []string
	groups := make(map[string]*group)
	for _, m := range snapshot {
		f := familyOf(m)
		g, ok := groups[f.name]
		if !ok {
			g = &group{help: f.help, kind: f.kind}
			groups[f.name] = g
			names = append(names, f.name)
		}
		g.members = append(g.members, m)
	}

	for _, name := range names {
		g := groups[name]
		if g.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(g.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, g.kind)
		for _, m := range g.members {
			switch v := m.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", v.name, v.labels, v.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %d\n", v.name, v.labels, v.Value())
			case *gaugeFunc:
				writeFloat(w, v.name, v.labels, v.value())
			case *Histogram:
				writeHistogram(w, v)
			}
			if ew.err != nil {
				return ew.err
			}
		}
	}
	return ew.err
}

// RenderPrometheus returns WritePrometheus output as a string.
func (r *Registry) RenderPrometheus() string {
	var b strings.Builder
	_ = r.WritePrometheus(&b) // strings.Builder writes cannot fail
	return b.String()
}

func familyOf(m interface{}) family {
	switch v := m.(type) {
	case *Counter:
		return v.family
	case *Gauge:
		return v.family
	case *gaugeFunc:
		return v.family
	case *Histogram:
		return v.family
	}
	panic("telemetry: unknown metric type")
}

func writeFloat(w io.Writer, name, labels string, v float64) {
	switch {
	case math.IsNaN(v):
		fmt.Fprintf(w, "%s%s NaN\n", name, labels)
	case math.IsInf(v, 1):
		fmt.Fprintf(w, "%s%s +Inf\n", name, labels)
	case math.IsInf(v, -1):
		fmt.Fprintf(w, "%s%s -Inf\n", name, labels)
	default:
		fmt.Fprintf(w, "%s%s %g\n", name, labels, v)
	}
}

func writeHistogram(w io.Writer, h *Histogram) {
	buckets, count, sum := h.snapshot()
	// Child labels must merge with le; strip the braces.
	inner := strings.TrimSuffix(strings.TrimPrefix(h.labels, "{"), "}")
	if inner != "" {
		inner += ","
	}
	scale := math.Float64frombits(h.scaleBits.Load())
	var cum uint64
	for i := 0; i < len(buckets)-1; i++ {
		cum += buckets[i]
		if scale > 0 {
			fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", h.name, inner, float64(upperBound(i))*scale, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", h.name, inner, upperBound(i), cum)
		}
	}
	cum += buckets[len(buckets)-1]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", h.name, inner, cum)
	if scale > 0 {
		fmt.Fprintf(w, "%s_sum%s %g\n", h.name, h.labels, float64(sum)*scale)
	} else {
		fmt.Fprintf(w, "%s_sum%s %d\n", h.name, h.labels, sum)
	}
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, h.labels, count)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// SeriesNames returns the sorted fully qualified family names — handy for
// documentation tests and the README metric catalog.
func (r *Registry) SeriesNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[string]bool)
	var names []string
	for _, m := range r.ordered {
		f := familyOf(m)
		if !seen[f.name] {
			seen[f.name] = true
			names = append(names, f.name)
		}
	}
	sort.Strings(names)
	return names
}
