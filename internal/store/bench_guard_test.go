package store

import (
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"instameasure/internal/export"
	"instameasure/internal/packet"
)

// benchStore lazily builds (once per process) a store holding one million
// flow records: 500 epochs × 2000 flows, spread across several segments.
var benchStore = struct {
	once sync.Once
	s    *Store
	err  error
}{}

func openBenchStore(tb testing.TB) *Store {
	tb.Helper()
	benchStore.once.Do(func() {
		dir, err := os.MkdirTemp("", "store-bench")
		if err != nil {
			benchStore.err = err
			return
		}
		s, err := Open(dir, Options{})
		if err != nil {
			benchStore.err = err
			return
		}
		s.segBytes = 16 << 20
		const epochs, flows = 500, 2000
		recs := make([]export.Record, flows)
		for e := int64(1); e <= epochs; e++ {
			for i := range recs {
				id := i + 1
				recs[i] = export.Record{
					Key:        packet.V4Key(0x0a000000+uint32(id), 0xc0a80001, uint16(id), 443, packet.ProtoTCP),
					Pkts:       float64(id) * float64(e),
					Bytes:      float64(64*id) * float64(e),
					FirstSeen:  1,
					LastUpdate: e,
				}
			}
			if err := s.Append(e, recs, export.TableStats{}); err != nil {
				benchStore.err = err
				return
			}
		}
		benchStore.s = s
	})
	if benchStore.err != nil {
		tb.Fatal(benchStore.err)
	}
	return benchStore.s
}

// BenchmarkStoreWindowedTopK1M measures a windowed top-k over the
// million-record store — the query the epoch index exists for: resolving
// the window touches two epoch tables, not a million records.
func BenchmarkStoreWindowedTopK1M(b *testing.B) {
	s := openBenchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopK(Window{From: 200, To: 400}, 10, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreTopKHTTP1M is the same query through the full JSON
// endpoint, what the acceptance bound is stated against.
func BenchmarkStoreTopKHTTP1M(b *testing.B) {
	api := NewQueryAPI(openBenchStore(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr := httptest.NewRecorder()
		api.ServeHTTP(rr, httptest.NewRequest("GET", "/flows/topk?k=10&by=bytes&from=200&to=400", nil))
		if rr.Code != 200 {
			b.Fatalf("topk: %d %s", rr.Code, rr.Body.String())
		}
	}
}

// TestStoreTopKGuard is the acceptance bound: /flows/topk over a
// 1M-record store answers in under 50 ms. Like the other perf guards it
// only runs under INSTAMEASURE_BENCH_GUARD=1 (`make bench-guard`), best of
// three trials.
func TestStoreTopKGuard(t *testing.T) {
	if os.Getenv("INSTAMEASURE_BENCH_GUARD") != "1" {
		t.Skip("set INSTAMEASURE_BENCH_GUARD=1 (or run `make bench-guard`) to enable")
	}
	const trials = 3
	best := 0.0
	for i := 0; i < trials; i++ {
		r := testing.Benchmark(BenchmarkStoreTopKHTTP1M)
		if v := float64(r.NsPerOp()); best == 0 || v < best {
			best = v
		}
	}
	ms := best / 1e6
	t.Logf("/flows/topk over 1M records: %.2f ms", ms)
	if ms > 50 {
		t.Errorf("windowed top-k took %.2f ms, budget is 50 ms", ms)
	}
}
