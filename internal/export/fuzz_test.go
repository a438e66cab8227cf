package export

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"instameasure/internal/packet"
)

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func seedKeyV6() packet.FlowKey {
	k := packet.FlowKey{SrcPort: 53, DstPort: 5353, Proto: packet.ProtoUDP, IsV6: true}
	k.SrcIP[0], k.SrcIP[15] = 0x20, 1
	k.DstIP[0], k.DstIP[15] = 0x20, 2
	return k
}

func fuzzSeedBatch() []byte {
	var buf bytes.Buffer
	_ = WriteBatch(&buf, Batch{Epoch: 42, Records: []Record{
		{Key: rec(1).Key, Pkts: 10, Bytes: 4242, FirstSeen: 1, LastUpdate: 9},
		{Key: seedKeyV6(), Pkts: 3.5, Bytes: 100.25, FirstSeen: 2, LastUpdate: 8},
	}})
	return buf.Bytes()
}

// sameBatch reports whether two decoded batches are bit-identical.
func sameBatch(a, b Batch) bool {
	if a.Epoch != b.Epoch || a.Site != b.Site || len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		x, z := a.Records[i], b.Records[i]
		// Compare counter bit patterns, not float values: a decoded NaN is
		// legal and must survive unchanged.
		if x.Key != z.Key || !sameBits(x.Pkts, z.Pkts) || !sameBits(x.Bytes, z.Bytes) ||
			x.FirstSeen != z.FirstSeen || x.LastUpdate != z.LastUpdate {
			return false
		}
	}
	return true
}

// FuzzReadBatch throws arbitrary frames at the batch decoder. The
// contract: never panic, never over-allocate, and any frame that decodes
// must round-trip bit-exactly through WriteBatch → ReadBatch. A reused
// BatchReader, already holding a larger frame, must read each input
// twice exactly as a fresh ReadBatch does, error included.
func FuzzReadBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzSeedBatch())
	corrupt := fuzzSeedBatch()
	corrupt[17] ^= 0x80 // payload length high byte
	f.Add(corrupt)
	warm, err := AppendBatch(nil, Batch{Epoch: 9, Site: "edge-9", Records: mixedRecords(64)})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBatch(bytes.NewReader(data))
		var br BatchReader
		if _, err := br.Read(bytes.NewReader(warm)); err != nil {
			t.Fatal(err)
		}
		for pass := 1; pass <= 2; pass++ {
			got, gotErr := br.Read(bytes.NewReader(data))
			if fmt.Sprint(gotErr) != fmt.Sprint(err) || (err == nil && !sameBatch(got, b)) {
				t.Fatalf("reused reader, pass %d: %+v, %v; fresh ReadBatch: %+v, %v", pass, got, gotErr, b, err)
			}
		}
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := WriteBatch(&re, b); err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		b2, err := ReadBatch(&re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !sameBatch(b, b2) {
			t.Fatalf("round trip changed the batch:\n  %+v\n  %+v", b, b2)
		}
	})
}

// FuzzReadSnapshotStats drives the snapshot-plus-trailer path, which layers
// a second magic and CRC on top of the batch frame.
func FuzzReadSnapshotStats(f *testing.F) {
	var plain, full bytes.Buffer
	recs := []Record{{Key: rec(2).Key, Pkts: 7, Bytes: 700, FirstSeen: 3, LastUpdate: 5}}
	_ = writeSnapshot(&plain, 7, recs)
	_ = WriteSnapshotStats(&full, 7, recs, TableStats{Updates: 6, Inserts: 1, Expirations: 2, Evictions: 3, Drops: 4})
	f.Add(plain.Bytes())
	f.Add(full.Bytes())
	f.Add(full.Bytes()[:full.Len()-2]) // trailer cut mid-CRC

	f.Fuzz(func(t *testing.T, data []byte) {
		b, stats, hasStats, err := ReadSnapshotStats(bytes.NewReader(data))

		// The in-place decoder accepts exactly what the stream decoder
		// accepts, and hands over the same records, bit for bit.
		var streamed []Record
		epoch, stats2, hasStats2, err2 := DecodeSnapshotStats(data, func(r *Record) { streamed = append(streamed, *r) })
		if (err == nil) != (err2 == nil) {
			t.Fatalf("ReadSnapshotStats error %v, DecodeSnapshotStats error %v", err, err2)
		}
		if err != nil {
			return
		}
		if epoch != b.Epoch || stats2 != stats || hasStats2 != hasStats || len(streamed) != len(b.Records) {
			t.Fatalf("in-place decode: epoch %d stats %+v/%v %d records; stream decode: epoch %d stats %+v/%v %d records",
				epoch, stats2, hasStats2, len(streamed), b.Epoch, stats, hasStats, len(b.Records))
		}
		for i := range streamed {
			a, z := streamed[i], b.Records[i]
			if a.Key != z.Key || !sameBits(a.Pkts, z.Pkts) || !sameBits(a.Bytes, z.Bytes) ||
				a.FirstSeen != z.FirstSeen || a.LastUpdate != z.LastUpdate {
				t.Fatalf("record %d: in-place %+v, stream %+v", i, a, z)
			}
		}

		var re bytes.Buffer
		if hasStats {
			err = WriteSnapshotStats(&re, b.Epoch, b.Records, stats)
		} else {
			err = writeSnapshot(&re, b.Epoch, b.Records)
		}
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		b2, stats2, hasStats2, err := ReadSnapshotStats(&re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if hasStats2 != hasStats || stats2 != stats ||
			b2.Epoch != b.Epoch || len(b2.Records) != len(b.Records) {
			t.Fatalf("round trip changed snapshot: stats %+v/%v vs %+v/%v",
				stats2, hasStats2, stats, hasStats)
		}
	})
}
