package instameasure

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"instameasure/internal/wsaf"
)

// TestExportSnapshotGolden pins each snapshot twice. The content hash —
// the records sorted by key, every field — was recorded on the slot-order
// walk before the WSAF's entries went dense, and a missed, doubled or
// changed flow changes it. The byte hash also pins the record order (the
// dense walk's insertion order) and the stats trailer.
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
		name    string
		export  func(*bytes.Buffer) error
		want    string
		content string
	}{
		{"meter", clusterCut(t, ClusterConfig{Meter: base}, tr), "f43c9451aa1117fd53b63ec034d33a4c93b3858bd492f04ddb2a031a928ba379",
			"611a54f9928352fc336b7dc45df8b1ca75b1368d1b93e80b55ab666042cbe034"},
		{"meter_cached", clusterCut(t, ClusterConfig{Meter: cached}, tr), "32318747b9c6fcfaad049fc322822fee12c96c2c9caed246da330b70bbf112de",
			"2dcede54bc123d44fbcebbd84364d62d1282e62157cdcd714331aba715dbfb13"},
		{"meter_cached_ttl", clusterCut(t, ClusterConfig{Meter: ttl}, tr), "6ed8fe97539d2dd0fcb642e83cd2eb6e2c64e18bd01c50626eb7aaf2365ef68c",
			"9f1f669cdf95e8f5c920ee23b20efb5c69e2d3f05a96223f026cb1058a33bc79"},
		{"cluster_w1", clusterCut(t, ClusterConfig{Workers: 1, Meter: cached}, tr), "32318747b9c6fcfaad049fc322822fee12c96c2c9caed246da330b70bbf112de",
			"2dcede54bc123d44fbcebbd84364d62d1282e62157cdcd714331aba715dbfb13"},
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
		recs, _, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := contentHash(recs); got != c.content {
			t.Errorf("%s: %d records sorted by key hash to %s, want %s", c.name, len(recs), got, c.content)
		}
	}
}

// contentHash is the sha256 of recs sorted by key, every field of every
// record included: what a snapshot says, whatever order it says it in.
func contentHash(recs []FlowRecord) string {
	rows := make([][]byte, len(recs))
	for i, r := range recs {
		k := r.Key
		b := append(append(append([]byte(nil), k.SrcIP[:]...), k.DstIP[:]...),
			byte(k.SrcPort>>8), byte(k.SrcPort), byte(k.DstPort>>8), byte(k.DstPort), k.Proto, 0)
		if k.IsV6 {
			b[len(b)-1] = 1
		}
		for _, v := range []uint64{math.Float64bits(r.Pkts), math.Float64bits(r.Bytes), uint64(r.FirstSeen), uint64(r.LastUpdate)} {
			b = binary.BigEndian.AppendUint64(b, v)
		}
		rows[i] = b
	}
	slices.SortFunc(rows, bytes.Compare)
	h := sha256.New()
	for _, b := range rows {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
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
