package instameasure

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"instameasure/internal/wsaf"
)

// TestExportSnapshotGolden pins the snapshot file, byte for byte, to what
// the full-scan table walk wrote before the occupancy bitmap: the hashes
// were recorded on the parent commit of the change that introduced the
// walk. A different record order, a missed or doubled flow, or a changed
// stats trailer all change the hash.
func TestExportSnapshotGolden(t *testing.T) {
	tr, err := GenerateZipfTrace(ZipfTraceConfig{Flows: 20_000, TotalPackets: 400_000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{SketchMemoryBytes: 32 << 10, WSAFEntries: 1 << 14, Seed: 7}
	cached := base
	cached.HotCacheEntries = 512
	// The trace spans ~0.4 s at the default rate: a 50 ms TTL expires
	// entries mid-run, so the walk's expiry filter and the cache-only
	// (expired base) records are both in the file.
	ttl := cached
	ttl.WSAFTTLNanos = 50e6

	cases := []struct {
		name   string
		export func(*bytes.Buffer) error
		want   string
	}{
		{"meter", clusterCut(t, ClusterConfig{Meter: base}, tr), "55bce9b97a9453b0ffc6ce4fc26f91294108f2ddb7169109a1da53f3b048500a"},
		{"meter_cached", clusterCut(t, ClusterConfig{Meter: cached}, tr), "0964420c6d755683ab3d53c5e23e3be2dc1a1a70a3f8de6783360236195efbd9"},
		{"meter_cached_ttl", clusterCut(t, ClusterConfig{Meter: ttl}, tr), "5eb8103eca44746d3f7a425934afc8cfd9e59eeb8c24b6fa2cd907157ea176c4"},
		{"cluster_w1", clusterCut(t, ClusterConfig{Workers: 1, Meter: cached}, tr), "0964420c6d755683ab3d53c5e23e3be2dc1a1a70a3f8de6783360236195efbd9"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.export(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: snapshot of %d bytes hashes to %s, want %s", c.name, buf.Len(), got, c.want)
		}
	}
}

func clusterCut(t *testing.T, cfg ClusterConfig, tr *Trace) func(*bytes.Buffer) error {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	return func(buf *bytes.Buffer) error { return c.ExportSnapshot(buf, 42) }
}

// TestClusterTopKMatchesFlowsSort: the selection across the workers'
// walks is the first k rows of a stable descending sort of Flows (equal
// metric: lower worker, then that worker's walk order), with the hot cache
// on and off and the TTL on and off — so merged and cache-only flows are
// in the walk — on one worker and on three.
func TestClusterTopKMatchesFlowsSort(t *testing.T) {
	tr := testTrace(t)
	for _, workers := range []int{1, 3} {
		for _, cache := range []int{0, 64} {
			// The trace spans ~0.3 s; 40 ms expires most of the table.
			for _, ttl := range []int64{0, 40e6} {
				c, err := NewCluster(ClusterConfig{Workers: workers, Meter: Config{SketchMemoryBytes: 16 << 10,
					WSAFEntries: 1 << 12, HotCacheEntries: cache, WSAFTTLNanos: ttl, Seed: 9}})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Run(tr.Source()); err != nil {
					t.Fatal(err)
				}
				checkTopK(t, c)
			}
		}
	}
}

func checkTopK(t *testing.T, c *Cluster) {
	t.Helper()
	flows := c.Flows()
	for _, k := range []int{-1, 0, 1, 50, len(flows), len(flows) + 1} {
		for name, top := range map[string]struct {
			got    []FlowRecord
			metric func(*FlowRecord) float64
		}{
			"packets": {c.TopKPackets(k), func(r *FlowRecord) float64 { return r.Pkts }},
			"bytes":   {c.TopKBytes(k), func(r *FlowRecord) float64 { return r.Bytes }},
		} {
			want := slices.Clone(flows)
			sort.SliceStable(want, func(i, j int) bool { return top.metric(&want[i]) > top.metric(&want[j]) })
			want = want[:max(0, min(k, len(want)))]
			if !slices.Equal(top.got, want) {
				t.Fatalf("top-%d by %s differs from the stable sort of Flows (%d flows)", k, name, len(flows))
			}
		}
	}
}

// TestTopKAllocatesForKNotLive: without the cache a top-k selects during
// the walk, so what it allocates is a function of k alone — ten times the
// live flows cost not one byte more.
func TestTopKAllocatesForKNotLive(t *testing.T) {
	const k = 1000
	measure := func(live int) (allocs float64, bytes uint64) {
		m, err := New(Config{WSAFEntries: 1 << 18, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tab := m.sys.Engines()[0].Table()
		for i := 0; tab.Len() < live; i++ {
			key := V4Key(uint32(i), 9, uint16(i), 443, ProtoTCP)
			tab.Accumulate(key, float64(1+i%613), float64(i), 1)
		}
		query := func() {
			if top := m.TopKPackets(k); len(top) != k {
				t.Fatalf("top-k of %d live flows holds %d", live, len(top))
			}
		}
		allocs = testing.AllocsPerRun(5, query)
		// Another goroutine's allocation can land inside a window and
		// only adds bytes, so the query's own count is the least of
		// several single-query windows.
		bytes = math.MaxUint64
		for range 5 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			query()
			runtime.ReadMemStats(&m1)
			bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
		}
		return allocs, bytes
	}
	allocsSmall, bytesSmall := measure(5_000)
	allocsLarge, bytesLarge := measure(50_000)
	if allocsLarge != allocsSmall || bytesLarge != bytesSmall {
		t.Errorf("top-%d allocated %v times / %d B over 5k live flows, %v times / %d B over 50k", k,
			allocsSmall, bytesSmall, allocsLarge, bytesLarge)
	}
	// The selection's entries, then the k records handed out.
	if limit := uint64(k) * uint64(8*unsafe.Sizeof(wsaf.Entry{})+unsafe.Sizeof(FlowRecord{})); bytesLarge > limit {
		t.Errorf("top-%d allocated %d B, above %d (8 entries and one record per row)", k, bytesLarge, limit)
	}
}
