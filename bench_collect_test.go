package instameasure

// Control-plane rows of the layered ledger (make bench-layers): what a
// record costs after it has left the meter — collector serve and merge,
// fleet aggregate + detect, and the store's windowed queries — on the
// shape the repository benchmark's epoch_fleet workload runs (two sites, 40 000
// cumulative records each, every flow moving every epoch), plus the flow
// table's unit of work at that size and at 2^20 flows.

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"

	"instameasure/internal/detect"
	"instameasure/internal/export"
	"instameasure/internal/fleet"
	"instameasure/internal/flowtable"
	"instameasure/internal/packet"
	"instameasure/internal/store"
)

const (
	tierSites   = 2
	tierRecords = 40_000 // per site per epoch
	tierEpochs  = 12     // history the store benchmarks query over
)

// tierBatch is site's cumulative snapshot at epoch: disjoint v4 flows per
// site, counters growing by a per-flow stride so every flow moves every
// epoch and sizes differ.
func tierBatch(site int, epoch int64) []export.Record {
	recs := make([]export.Record, tierRecords)
	for i := range recs {
		src := 0x0A000000 | uint32(site)<<22 | uint32(i)
		pkts := float64(epoch) * float64(1+i%97)
		recs[i] = export.Record{
			Key:        packet.V4Key(src, 0xC0A80000|uint32(i%251), uint16(1024+i%40000), 443, packet.ProtoTCP),
			Pkts:       pkts,
			Bytes:      pkts * float64(64+i%1400),
			FirstSeen:  1,
			LastUpdate: epoch,
		}
	}
	return recs
}

// reportMrecords adds records per second in the unit cmd/benchjson guards.
func reportMrecords(b *testing.B, perOp int) {
	b.ReportMetric(float64(b.N)*float64(perOp)*1e3/float64(b.Elapsed().Nanoseconds()), "Mpps")
}

// serveFrames writes one site's 40 000-record frame to a collector at
// addr per op, over loopback TCP, and waits on done for it to be through.
func serveFrames(b *testing.B, addr string, done <-chan struct{}) {
	var frame bytes.Buffer
	if err := export.WriteBatch(&frame, export.Batch{Epoch: 1, Site: "edge-1", Records: tierBatch(0, 1)}); err != nil {
		b.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(frame.Bytes()); err != nil {
			b.Fatal(err)
		}
		<-done
	}
	reportMrecords(b, tierRecords)
}

// BenchmarkCollectorMerge is one frame through a delegation collector per
// op: read off loopback TCP, CRC, decode, and the additive merge into its
// global table (every key already present after the first op).
func BenchmarkCollectorMerge(b *testing.B) {
	coll, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer coll.Close()
	merged := make(chan struct{}, 1) // one frame in flight
	coll.c.AddHook(func(export.Batch) { merged <- struct{}{} })
	serveFrames(b, coll.Addr(), merged)
}

// BenchmarkCollectorServe is the same frame through a bare collector, the
// fleet tier's: read, CRC and decode, handed to one hook that signals it.
func BenchmarkCollectorServe(b *testing.B) {
	coll, err := export.NewCollector("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer coll.Close()
	served := make(chan struct{}, 1)
	coll.AddHook(func(export.Batch) { served <- struct{}{} })
	serveFrames(b, coll.Addr(), served)
}

// BenchmarkStreamObserve is one 40 000-record batch per op through a
// DDoS-victim detector's Observe, the records spread over 1 000
// destinations, and the window rotated after it as the fleet tier rotates
// it once per epoch: the tier's per-record detection cost.
func BenchmarkStreamObserve(b *testing.B) {
	det, err := detect.NewStreamDetector(detect.StreamConfig{Kind: detect.KindDDoSVictim, Threshold: 300})
	if err != nil {
		b.Fatal(err)
	}
	recs := tierBatch(0, 1)
	for i := range recs {
		recs[i].Key.DstIP = packet.V4Key(0, 0xC0A80000|uint32(i%1000), 0, 0, packet.ProtoTCP).DstIP
	}
	var alerts []detect.Alert
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			alerts = det.Observe("edge-1", &recs[j], recs[j].Pkts, int64(i+1), alerts[:0])
		}
		det.Rotate()
	}
	reportMrecords(b, tierRecords)
}

// BenchmarkExportBatch is one site's 40 000-record epoch framed and
// written to io.Discard per op: the exporter's half of a send.
func BenchmarkExportBatch(b *testing.B) {
	batch := export.Batch{Epoch: 1, Site: "edge-1", Records: tierBatch(0, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := export.WriteBatch(io.Discard, batch); err != nil {
			b.Fatal(err)
		}
	}
	reportMrecords(b, tierRecords)
}

// BenchmarkStoreAppend80k is one 40 000-record epoch appended per op, the
// two sites in turn: encode, write and index. Every storeAppends ops the
// full store is replaced by an empty one off the clock, before its 64 MB
// segment would seal, so no op pays the seal's fsync and the disk holds
// one store at a time.
func BenchmarkStoreAppend80k(b *testing.B) {
	const storeAppends = 32 // ~59 MB of frames
	recs := [tierSites][]export.Record{tierBatch(0, 1), tierBatch(1, 1)}
	dir := filepath.Join(b.TempDir(), "store")
	var st *store.Store
	fresh := func() {
		if st != nil {
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		var err error
		if st, err = store.Open(dir, store.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%storeAppends == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		if err := st.Append(int64(i/tierSites+1), recs[i%tierSites], export.TableStats{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	reportMrecords(b, tierRecords)
}

// BenchmarkFleetIngest is one fleet epoch per op: both sites' batches
// folded into the aggregator with a DDoS-victim detector attached, every
// record a non-zero delta, the window rotating once per epoch.
func BenchmarkFleetIngest(b *testing.B) {
	det, err := detect.NewStreamDetector(detect.StreamConfig{Kind: detect.KindDDoSVictim, Threshold: 300})
	if err != nil {
		b.Fatal(err)
	}
	agg, err := fleet.New(fleet.Config{Detectors: []*detect.StreamDetector{det}})
	if err != nil {
		b.Fatal(err)
	}
	batches := [tierSites]export.Batch{
		{Site: "edge-1", Records: tierBatch(0, 1)},
		{Site: "edge-2", Records: tierBatch(1, 1)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := range batches {
			batches[s].Epoch = int64(i + 1)
			for j := range batches[s].Records {
				batches[s].Records[j].Pkts++
			}
			agg.Ingest(batches[s])
		}
	}
	reportMrecords(b, tierSites*tierRecords)
}

// tierStore is a store holding tierEpochs epochs of both sites' snapshots.
func tierStore(b *testing.B) *store.Store {
	b.Helper()
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() }) //nolint:errcheck // teardown of a read-only benchmark store
	for e := int64(1); e <= tierEpochs; e++ {
		for s := 0; s < tierSites; s++ {
			if err := st.Append(e, tierBatch(s, e), export.TableStats{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return st
}

// BenchmarkStoreTopK80k is epoch_fleet's query: top 100 of 80 000 flows by
// growth over a 10-epoch window (four 40 000-record frames read).
func BenchmarkStoreTopK80k(b *testing.B) {
	st := tierStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := st.TopK(store.Window{From: tierEpochs - 9, To: tierEpochs}, 100, i%2 == 1)
		if err != nil || len(top) != 100 {
			b.Fatalf("top-k returned %d rows, error %v", len(top), err)
		}
	}
	reportMrecords(b, tierSites*tierRecords)
}

// BenchmarkStoreHeavyChangers80k ranks the same flows by how much their
// growth changed between the two newest epochs (eight frames read).
func BenchmarkStoreHeavyChangers80k(b *testing.B) {
	st := tierStore(b)
	older, newer, ok := st.DefaultChangerWindows()
	if !ok {
		b.Fatal("store has fewer than two epochs")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := st.HeavyChangers(older, newer, 100, false)
		if err != nil || len(top) != 100 {
			b.Fatalf("changers returned %d rows, error %v", len(top), err)
		}
	}
	reportMrecords(b, tierSites*tierRecords)
}

// BenchmarkFlowtableUpsert is the tier's unit of work: hash one key and
// find it in an 80 000-flow table, keys taken in an order unrelated to the
// one they were inserted in. Its baseline row is the parent commit's
// equivalent on a Go map (one get and one set per op).
func BenchmarkFlowtableUpsert(b *testing.B) {
	keys := append(tierBatch(0, 1), tierBatch(1, 1)...)
	var tab flowtable.Table[[2]float64]
	for i := range keys {
		tab.Upsert(flowtable.Hash(&keys[i].Key), &keys[i].Key)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := &keys[(i*7919)%len(keys)].Key
		v, _ := tab.Upsert(flowtable.Hash(k), k)
		v[0]++
	}
	reportMframes(b)
}

// BenchmarkFlowtableUpsert1M is the burst path at 2^20 flows — a table
// (~80 MB of entries and slots) past what the 80 000-flow rows leave in
// cache, so every probe is a DRAM miss: the case the collection tier's
// bursts exist for. Keys go in the same insertion-unrelated order as
// FlowtableUpsert, flowtable.Burst at a time: all hashed and hinted, then
// upserted in order. One op is one key. Its baseline row is the same keys
// through scalar Upsert on the parent commit.
func BenchmarkFlowtableUpsert1M(b *testing.B) {
	keys := make([]packet.FlowKey, 1<<20)
	for i := range keys {
		keys[i] = packet.V4Key(0x0A000000|uint32(i), 0xC0A80000|uint32(i%251), uint16(1024+i%40000), 443, packet.ProtoTCP)
	}
	var tab flowtable.Table[[2]float64]
	for i := range keys {
		tab.Upsert(flowtable.Hash(&keys[i]), &keys[i])
	}
	key := func(op int) *packet.FlowKey { return &keys[op*7919%len(keys)] }
	var hs [flowtable.Burst]uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += flowtable.Burst {
		n := min(flowtable.Burst, b.N-i)
		for j := range n {
			hs[j] = flowtable.Hash(key(i + j))
			tab.Prefetch(hs[j])
		}
		for j := range n {
			v, _ := tab.Upsert(hs[j], key(i+j))
			v[0]++
		}
	}
	reportMframes(b)
}
