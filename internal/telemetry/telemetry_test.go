package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry("test", 4)
	c := r.Counter("packets_total", "Packets.")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Fatalf("Value = %d, want 10", got)
	}
	// Shards accumulate independently and sum.
	c.Shard(1).Add(5)
	c.Shard(2).Inc()
	if got := c.Value(); got != 16 {
		t.Fatalf("Value after shard writes = %d, want 16", got)
	}
	// Single-writer Set publishes a total on one shard.
	c.Shard(3).Set(100)
	if got := c.Shard(3).Value(); got != 100 {
		t.Fatalf("shard Value = %d, want 100", got)
	}
	if got := c.Value(); got != 116 {
		t.Fatalf("Value after Set = %d, want 116", got)
	}
}

func TestGaugeSumsShards(t *testing.T) {
	r := NewRegistry("test", 3)
	g := r.Gauge("occupancy", "Entries.")
	g.Shard(0).Set(10)
	g.Shard(1).Set(20)
	g.Shard(2).Set(-5)
	if got := g.Value(); got != 25 {
		t.Fatalf("Value = %d, want 25", got)
	}
	g.Shard(1).Add(-20)
	if got := g.Value(); got != 5 {
		t.Fatalf("Value after Add = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry("test", 1)
	h := r.Histogram("probe_length", "Steps.", 4) // bounds 0,1,3,7 + +Inf
	for _, v := range []uint64{0, 1, 2, 3, 7, 8, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	if got := h.Sum(); got != 1021 {
		t.Fatalf("Sum = %d, want 1021", got)
	}
	buckets, _, _ := h.snapshot()
	// bits.Len64: 0→bucket0, 1→bucket1, {2,3}→bucket2, {4..7}→bucket3,
	// everything larger→+Inf bucket (index 4).
	want := []uint64{1, 1, 2, 1, 2}
	for i, w := range want {
		if buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all %v)", i, buckets[i], w, buckets)
		}
	}
}

func TestHistogramRendersCumulative(t *testing.T) {
	r := NewRegistry("test", 1)
	h := r.Histogram("lat", "Latency.", 3)
	h.Observe(0)
	h.Observe(1)
	h.Observe(100) // +Inf
	out := r.RenderPrometheus()
	for _, line := range []string{
		`test_lat_bucket{le="0"} 1`,
		`test_lat_bucket{le="1"} 2`,
		`test_lat_bucket{le="3"} 2`,
		`test_lat_bucket{le="+Inf"} 3`,
		`test_lat_sum 101`,
		`test_lat_count 3`,
		`# TYPE test_lat histogram`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("render missing %q:\n%s", line, out)
		}
	}
}

func TestLabeledHistogramMergesLe(t *testing.T) {
	r := NewRegistry("test", 1)
	h := r.Histogram("lat", "Latency.", 2, "worker", "3")
	h.Observe(1)
	out := r.RenderPrometheus()
	if !strings.Contains(out, `test_lat_bucket{worker="3",le="1"} 1`) {
		t.Fatalf("labeled bucket not merged with le:\n%s", out)
	}
	if !strings.Contains(out, `test_lat_sum{worker="3"} 1`) {
		t.Fatalf("labeled sum missing:\n%s", out)
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry("test", 2)
	a := r.Counter("x_total", "X.")
	b := r.Counter("x_total", "X.")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	// Distinct labels are distinct children of the same family.
	w0 := r.Counter("y_total", "Y.", "worker", "0")
	w1 := r.Counter("y_total", "Y.", "worker", "1")
	if w0 == w1 {
		t.Fatal("distinct label sets collapsed into one counter")
	}
	w0.Add(2)
	w1.Add(3)
	if got := r.Value("test_y_total"); got != 5 {
		t.Fatalf("Value summed over children = %g, want 5", got)
	}
	// The family renders one HELP/TYPE header with both children.
	out := r.RenderPrometheus()
	if strings.Count(out, "# TYPE test_y_total counter") != 1 {
		t.Fatalf("family header not deduplicated:\n%s", out)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "X as gauge.")
}

func TestGaugeFuncReplaces(t *testing.T) {
	r := NewRegistry("test", 1)
	r.GaugeFunc("ratio", "R.", func() float64 { return 1 })
	r.GaugeFunc("ratio", "R.", func() float64 { return 2 })
	if got := r.Value("test_ratio"); got != 2 {
		t.Fatalf("Value = %g, want the replacement fn's 2", got)
	}
	if n := strings.Count(r.RenderPrometheus(), "test_ratio"); n != 3 { // HELP + TYPE + value
		t.Fatalf("test_ratio appears %d times, want 3:\n%s", n, r.RenderPrometheus())
	}
}

func TestGaugeFuncSpecialFloats(t *testing.T) {
	r := NewRegistry("test", 1)
	r.GaugeFunc("nan", "N.", func() float64 { return math.NaN() })
	r.GaugeFunc("inf", "I.", func() float64 { return math.Inf(1) })
	out := r.RenderPrometheus()
	if !strings.Contains(out, "test_nan NaN") || !strings.Contains(out, "test_inf +Inf") {
		t.Fatalf("special float rendering wrong:\n%s", out)
	}
}

func TestEachAndSeriesNames(t *testing.T) {
	r := NewRegistry("test", 1)
	r.Counter("b_total", "B.").Add(7)
	r.Gauge("a", "A.").Set(3)
	r.Histogram("h", "H.", 2).Observe(1)
	got := map[string]float64{}
	r.Each(func(series string, v float64) { got[series] = v })
	if got["test_b_total"] != 7 || got["test_a"] != 3 {
		t.Fatalf("Each = %v", got)
	}
	if _, ok := got["test_h"]; ok {
		t.Fatal("Each visited a histogram")
	}
	names := r.SeriesNames()
	want := []string{"test_a", "test_b_total", "test_h"}
	if len(names) != len(want) {
		t.Fatalf("SeriesNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("SeriesNames = %v, want %v", names, want)
		}
	}
}

// TestConcurrentHammer drives every metric type from many goroutines at
// once — the satellite-3 race check. Run with -race.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers = 8
		perG    = 10_000
	)
	r := NewRegistry("test", workers)
	c := r.Counter("ops_total", "Ops.")
	g := r.Gauge("level", "Level.")
	h := r.Histogram("dist", "Dist.", 16)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs, gs, hs := c.Shard(w), g.Shard(w), h.Shard(w)
			for i := 0; i < perG; i++ {
				cs.Inc()
				gs.Add(1)
				hs.Observe(uint64(i))
			}
		}()
	}
	// Concurrent scrapers while writers run.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = r.RenderPrometheus()
				_ = r.Value("test_ops_total")
				r.Each(func(string, float64) {})
			}
		}()
	}
	// Concurrent registration of the same names (idempotent path).
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("ops_total", "Ops.")
				r.Histogram("dist", "Dist.", 16)
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != workers*perG {
		t.Fatalf("counter = %d, want %d", got, workers*perG)
	}
	if got := g.Value(); got != workers*perG {
		t.Fatalf("gauge = %d, want %d", got, workers*perG)
	}
	if got := h.Count(); got != workers*perG {
		t.Fatalf("histogram count = %d, want %d", got, workers*perG)
	}
	wantSum := uint64(workers) * uint64(perG) * uint64(perG-1) / 2
	if got := h.Sum(); got != wantSum {
		t.Fatalf("histogram sum = %d, want %d", got, wantSum)
	}
}

// TestConcurrentShardSetSingleWriter exercises the per-packet publication
// discipline: one writer per shard doing plain stores while a reader sums.
// The summed value must be monotone — each shard only ever grows.
func TestConcurrentShardSetSingleWriter(t *testing.T) {
	const workers = 4
	r := NewRegistry("test", workers)
	c := r.Counter("packets_total", "Packets.")
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			s := c.Shard(w)
			for total := uint64(1); total <= 5000; total++ {
				s.Set(total)
			}
		}()
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var last uint64
		for {
			v := c.Value()
			if v < last {
				t.Errorf("summed counter went backwards: %d -> %d", last, v)
				return
			}
			last = v
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if got := c.Value(); got != workers*5000 {
		t.Fatalf("final = %d, want %d", got, workers*5000)
	}
}

func TestExpvarJSON(t *testing.T) {
	r := NewRegistry("test", 1)
	r.Counter("n_total", "N.").Add(4)
	r.Histogram("h", "H.", 2).Observe(1)
	s := r.ExpvarVar().String()
	if !strings.Contains(s, `"test_n_total":4`) {
		t.Fatalf("expvar missing counter: %s", s)
	}
	if !strings.Contains(s, `"count":1`) {
		t.Fatalf("expvar missing histogram count: %s", s)
	}
}

func BenchmarkCounterShardInc(b *testing.B) {
	r := NewRegistry("bench", 1)
	s := r.Counter("ops_total", "Ops.").Shard(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Inc()
	}
}

func BenchmarkCounterShardSet(b *testing.B) {
	r := NewRegistry("bench", 1)
	s := r.Counter("ops_total", "Ops.").Shard(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set(uint64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry("bench", 1)
	s := r.Histogram("dist", "Dist.", 24).Shard(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(uint64(i))
	}
}

func BenchmarkRenderPrometheus(b *testing.B) {
	r := NewRegistry("bench", 4)
	for i := 0; i < 20; i++ {
		r.Counter(fmt.Sprintf("c%d_total", i), "C.").Add(uint64(i))
	}
	r.Histogram("dist", "Dist.", 24).Observe(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.RenderPrometheus()
	}
}

// TestCellTilesCacheLines: a metric's shards sit side by side in a slice of
// cells, so a cell must fill whole 64-byte lines or neighbouring shards
// false-share.
func TestCellTilesCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(cell{}); size%64 != 0 {
		t.Errorf("cell is %d bytes, not a whole number of 64-byte cache lines", size)
	}
}
