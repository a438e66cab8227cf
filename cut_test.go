package instameasure

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"testing"
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
		{"meter", meterCut(t, base, tr), "55bce9b97a9453b0ffc6ce4fc26f91294108f2ddb7169109a1da53f3b048500a"},
		{"meter_cached", meterCut(t, cached, tr), "0964420c6d755683ab3d53c5e23e3be2dc1a1a70a3f8de6783360236195efbd9"},
		{"meter_cached_ttl", meterCut(t, ttl, tr), "5eb8103eca44746d3f7a425934afc8cfd9e59eeb8c24b6fa2cd907157ea176c4"},
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

func meterCut(t *testing.T, cfg Config, tr *Trace) func(*bytes.Buffer) error {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ProcessSource(tr.Source()); err != nil {
		t.Fatal(err)
	}
	return func(buf *bytes.Buffer) error { return m.ExportSnapshot(buf, 42) }
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

// TestClusterTopKMatchesFlowsSort: the cluster's selection across its
// workers' walks is the first k rows of a stable descending sort of Flows
// (equal metric: lower worker, then that worker's walk order).
func TestClusterTopKMatchesFlowsSort(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Workers: 3,
		Meter: Config{SketchMemoryBytes: 16 << 10, WSAFEntries: 1 << 12, HotCacheEntries: 64, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(testTrace(t).Source()); err != nil {
		t.Fatal(err)
	}
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
