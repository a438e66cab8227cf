package export

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"instameasure/internal/packet"
)

// refAppendBatch is the slice encoder the streaming Encoder replaced,
// kept as FuzzEncoderMatchesReference's reference: a counting pass over
// the records sizes the payload exactly, then one pass writes header and
// records and one CRC covers the site bytes and the payload.
func refAppendBatch(dst []byte, b Batch) ([]byte, error) {
	if len(b.Records) > maxBatchRecords {
		return dst, fmt.Errorf("%w (%d records)", ErrOversized, len(b.Records))
	}
	if err := ValidateSite(b.Site); err != nil {
		return dst, err
	}
	payloadLen := len(b.Records) * recordMinBytes
	for i := range b.Records {
		if b.Records[i].Key.IsV6 {
			payloadLen += recordMaxBytes - recordMinBytes
		}
	}
	dst = slices.Grow(dst, 22+len(b.Site)+payloadLen+4+64)
	dst = binary.BigEndian.AppendUint32(dst, batchMagic)
	crc := uint32(0)
	if b.Site == "" {
		dst = append(dst, version)
	} else {
		dst = append(dst, versionSited, byte(len(b.Site)))
		dst = append(dst, b.Site...)
		crc = crc32.Update(crc, crc32.IEEETable, dst[len(dst)-1-len(b.Site):])
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(b.Epoch))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Records)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(payloadLen))
	off := len(dst)
	dst = dst[:off+payloadLen]
	payload := dst[off:]
	for i := range b.Records {
		off += refPutRecord(dst[off:], &b.Records[i])
	}
	return binary.BigEndian.AppendUint32(dst, crc32.Update(crc, crc32.IEEETable, payload)), nil
}

// refPutRecord is the reference's record writer: flag, addresses, ports,
// proto, then the four counters, at the offsets decodeRecord reads.
func refPutRecord(b []byte, r *Record) int {
	k, n := &r.Key, recordMinBytes
	if !k.IsV6 {
		b[0] = 0
		copy(b[1:5], k.SrcIP[:4])
		copy(b[5:9], k.DstIP[:4])
	} else {
		n = recordMaxBytes
		b[0] = 1
		copy(b[1:17], k.SrcIP[:])
		copy(b[17:33], k.DstIP[:])
	}
	t := b[n-tailBytes : n]
	binary.BigEndian.PutUint16(t[0:2], k.SrcPort)
	binary.BigEndian.PutUint16(t[2:4], k.DstPort)
	t[4] = k.Proto
	binary.BigEndian.PutUint64(t[5:13], math.Float64bits(r.Pkts))
	binary.BigEndian.PutUint64(t[13:21], math.Float64bits(r.Bytes))
	binary.BigEndian.PutUint64(t[21:29], uint64(r.FirstSeen))
	binary.BigEndian.PutUint64(t[29:37], uint64(r.LastUpdate))
	return n
}

// refAppendSnapshotStats is the reference snapshot: the magic, the
// reference batch and the stats trailer.
func refAppendSnapshotStats(dst []byte, epoch int64, records []Record, stats TableStats) ([]byte, error) {
	out, err := refAppendBatch(binary.BigEndian.AppendUint32(dst, snapshotMagic), Batch{Epoch: epoch, Records: records})
	if err != nil {
		return dst, err
	}
	out = binary.BigEndian.AppendUint32(out, trailerMagic)
	start := len(out)
	for _, v := range [...]uint64{stats.Updates, stats.Inserts, stats.Expirations, stats.Evictions, stats.Drops} {
		out = binary.BigEndian.AppendUint64(out, v)
	}
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:])), nil
}

// fuzzRecords is n records drawn from seed, about v6/256 of them IPv6,
// every counter an arbitrary bit pattern (NaNs included).
func fuzzRecords(seed uint64, n int, v6 uint8) []Record {
	rng := rand.New(rand.NewPCG(seed, uint64(v6)))
	recs := make([]Record, n)
	for i := range recs {
		r := &recs[i]
		if rng.IntN(256) < int(v6) {
			r.Key = packet.FlowKey{SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: uint8(rng.Uint32()), IsV6: true}
			binary.LittleEndian.PutUint64(r.Key.SrcIP[:8], rng.Uint64())
			binary.LittleEndian.PutUint64(r.Key.SrcIP[8:], rng.Uint64())
			binary.LittleEndian.PutUint64(r.Key.DstIP[:8], rng.Uint64())
			binary.LittleEndian.PutUint64(r.Key.DstIP[8:], rng.Uint64())
		} else {
			r.Key = packet.V4Key(rng.Uint32(), rng.Uint32(), uint16(rng.Uint32()), uint16(rng.Uint32()), uint8(rng.Uint32()))
		}
		r.Pkts = math.Float64frombits(rng.Uint64())
		r.Bytes = math.Float64frombits(rng.Uint64())
		r.FirstSeen, r.LastUpdate = int64(rng.Uint64()), int64(rng.Uint64())
	}
	return recs
}

// FuzzEncoderMatchesReference encodes one record stream through the
// streaming Encoder and through the slice encoder it replaced, and
// requires the same bytes (behind the same dst prefix), the same error,
// and a frame that decodes back to the stream bit for bit. Streams run
// from 0 to 4 999 records (past crcChunk many times), v4/v6 in any mix,
// with and without a site, as batches or as snapshots with a stats
// trailer, and a size hint from none to far past the stream; the slice
// forms (AppendBatch, AppendSnapshotStats) must match too.
func FuzzEncoderMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0), "", false, uint16(0), []byte(nil))
	f.Add(uint64(2), uint16(3000), uint8(13), "edge-1", false, uint16(100), []byte("xy"))
	f.Add(uint64(3), uint16(4000), uint8(255), "", true, uint16(4000), []byte(nil))
	f.Add(uint64(4), uint16(1), uint8(0), "bad site", false, uint16(0), []byte("p"))
	f.Add(uint64(5), uint16(700), uint8(64), "", true, uint16(0), []byte("IMS1"))

	f.Fuzz(func(t *testing.T, seed uint64, n uint16, v6 uint8, site string, snapshot bool, hint uint16, prefix []byte) {
		recs := fuzzRecords(seed, int(n)%5000, v6)
		epoch := int64(seed)
		stats := TableStats{Updates: seed, Inserts: uint64(n), Expirations: uint64(v6), Evictions: uint64(hint), Drops: seed >> 7}
		var e Encoder
		var want, got, slice []byte
		var wantErr, gotErr, sliceErr error
		if snapshot {
			want, wantErr = refAppendSnapshotStats(bytes.Clone(prefix), epoch, recs, stats)
			slice, sliceErr = AppendSnapshotStats(bytes.Clone(prefix), epoch, recs, stats)
			e.BeginSnapshot(bytes.Clone(prefix), epoch, int(hint%8192))
		} else {
			b := Batch{Epoch: epoch, Site: site, Records: recs}
			want, wantErr = refAppendBatch(bytes.Clone(prefix), b)
			slice, sliceErr = AppendBatch(bytes.Clone(prefix), b)
			e.Begin(bytes.Clone(prefix), epoch, site, int(hint%8192))
		}
		for i := range recs {
			e.Put(&recs[i])
		}
		if e.Count() != len(recs) {
			t.Fatalf("Count() = %d after %d records", e.Count(), len(recs))
		}
		if snapshot {
			got, gotErr = e.EndSnapshot(stats)
		} else {
			got, gotErr = e.End()
		}
		for _, c := range []struct {
			name string
			out  []byte
			err  error
		}{{"Encoder", got, gotErr}, {"slice form", slice, sliceErr}} {
			if fmt.Sprint(c.err) != fmt.Sprint(wantErr) || !bytes.Equal(c.out, want) {
				t.Fatalf("%s: %d bytes, error %v; reference: %d bytes, error %v", c.name, len(c.out), c.err, len(want), wantErr)
			}
		}
		if wantErr != nil {
			return
		}
		frame := got[len(prefix):]
		if snapshot {
			back, backStats, hasStats, err := ReadSnapshotStats(bytes.NewReader(frame))
			if err != nil || !hasStats || backStats != stats || !sameBatch(back, Batch{Epoch: epoch, Records: recs}) {
				t.Fatalf("snapshot decodes to %d records, stats %+v/%v, error %v", len(back.Records), backStats, hasStats, err)
			}
			return
		}
		back, err := ReadBatch(bytes.NewReader(frame))
		if err != nil || !sameBatch(back, Batch{Epoch: epoch, Site: site, Records: recs}) {
			t.Fatalf("batch decodes to %d records, site %q, error %v", len(back.Records), back.Site, err)
		}
	})
}
