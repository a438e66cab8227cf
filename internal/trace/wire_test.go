package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"instameasure/internal/packet"
	"instameasure/internal/pcap"
)

// wireCapture writes a generated trace as an Ethernet pcap snapped at 96
// bytes with every hundredth frame replaced by an ARP request, so the
// capture is 1 % non-IP. ends[k] is the offset just past the k-th IP frame
// (ends[0] is the bare global header): raw[:ends[k]] is a valid capture
// that parses to exactly k packets.
func wireCapture(t testing.TB, frames int) (raw []byte, ends []int, nonIP int) {
	t.Helper()
	// TotalPackets is approximate: ask for spare and take a prefix.
	tr, err := GenerateZipf(ZipfConfig{Flows: frames/20 + 1, TotalPackets: frames + frames/5 + 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) < frames {
		t.Fatalf("generator produced %d packets, need %d", len(tr.Packets), frames)
	}
	arp := make([]byte, 60)
	arp[12], arp[13] = 0x08, 0x06
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.LinkEthernet, 96)
	end := 24
	ends = append(ends, end)
	for i, p := range tr.Packets[:frames] {
		frame := arp
		if i%100 != 99 {
			if frame, err = packet.BuildEthernet(p, 96); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Write(p.TS, max(int(p.Len), len(frame)), frame); err != nil {
			t.Fatal(err)
		}
		end += 16 + len(frame)
		if i%100 != 99 {
			ends = append(ends, end)
		} else {
			nonIP++
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ends, nonIP
}

// eagerTruth is the reference the lazy truth must agree with: the map
// NewTrace used to build at construction.
func eagerTruth(pkts []packet.Packet) map[packet.FlowKey]FlowTruth {
	want := make(map[packet.FlowKey]FlowTruth)
	for _, p := range pkts {
		ft, ok := want[p.Key]
		if !ok {
			ft = FlowTruth{FirstTS: p.TS, LastTS: p.TS}
		}
		ft.Pkts++
		ft.Bytes += uint64(p.Len)
		ft.FirstTS = min(ft.FirstTS, p.TS)
		ft.LastTS = max(ft.LastTS, p.TS)
		want[p.Key] = ft
	}
	return want
}

func checkTruth(t *testing.T, tr *Trace) {
	t.Helper()
	want := eagerTruth(tr.Packets)
	if tr.Flows() != len(want) {
		t.Fatalf("Flows = %d, want %d", tr.Flows(), len(want))
	}
	for k, w := range want {
		if got := tr.Truth(k); got == nil || *got != w {
			t.Fatalf("Truth(%v) = %+v, want %+v", k, got, w)
		}
	}
	seen := 0
	tr.EachTruth(func(k packet.FlowKey, ft *FlowTruth) {
		seen++
		if *ft != want[k] {
			t.Fatalf("EachTruth(%v) = %+v, want %+v", k, *ft, want[k])
		}
	})
	if seen != len(want) {
		t.Fatalf("EachTruth visited %d flows, want %d", seen, len(want))
	}
	// Ties make the key order ambiguous; the sizes are not.
	sizes := make([]uint64, 0, len(want))
	for _, w := range want {
		sizes = append(sizes, w.Pkts)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	top := tr.TopTruth(10, func(ft *FlowTruth) float64 { return float64(ft.Pkts) })
	if len(top) != min(10, len(want)) {
		t.Fatalf("TopTruth returned %d keys", len(top))
	}
	for i, k := range top {
		if want[k].Pkts != sizes[i] {
			t.Fatalf("TopTruth[%d] has %d packets, want %d", i, want[k].Pkts, sizes[i])
		}
	}
}

func TestLazyTruthMatchesEager(t *testing.T) {
	gen, err := GenerateZipf(ZipfConfig{Flows: 300, TotalPackets: 6000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Skipped != 0 {
		t.Errorf("generated trace Skipped = %d", gen.Skipped)
	}
	checkTruth(t, gen)

	var buf bytes.Buffer
	if err := gen.WritePcap(&buf, 0); err != nil {
		t.Fatal(err)
	}
	read, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkTruth(t, read)

	// Merge before either input's truth was ever asked for, and after.
	other, err := GenerateZipf(ZipfConfig{Flows: 300, TotalPackets: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkTruth(t, Merge(read, other))
	checkTruth(t, Merge(gen, other))
}

func TestLazyTruthConcurrentFirstUse(t *testing.T) {
	tr, err := GenerateZipf(ZipfConfig{Flows: 500, TotalPackets: 20000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := eagerTruth(tr.Packets)
	probe := tr.Packets[0].Key
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				if n := tr.Flows(); n != len(want) {
					t.Errorf("Flows = %d, want %d", n, len(want))
				}
			case 1:
				if ft := tr.Truth(probe); ft == nil || *ft != want[probe] {
					t.Errorf("Truth = %+v, want %+v", ft, want[probe])
				}
			case 2:
				n := 0
				tr.EachTruth(func(packet.FlowKey, *FlowTruth) { n++ })
				if n != len(want) {
					t.Errorf("EachTruth visited %d, want %d", n, len(want))
				}
			case 3:
				if top := tr.TopTruth(5, func(ft *FlowTruth) float64 { return float64(ft.Bytes) }); len(top) != 5 {
					t.Errorf("TopTruth returned %d keys", len(top))
				}
			}
		}(g)
	}
	wg.Wait()
}

// reference is what ReadPcap and PcapSource must both return: the capture
// read one record at a time with pcap.Reader.Next and each frame parsed,
// to the reader's terminating error.
func reference(r io.Reader) (pkts []packet.Packet, skipped int, err error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, 0, err
	}
	link := pr.LinkType()
	if link != pcap.LinkEthernet && link != pcap.LinkRaw {
		return nil, 0, fmt.Errorf("trace: unsupported link type %d", link)
	}
	for {
		rec, err := pr.Next()
		if errors.Is(err, io.EOF) {
			return pkts, skipped, nil
		}
		if err != nil {
			return pkts, skipped, err
		}
		var p packet.Packet
		if link == pcap.LinkEthernet {
			err = p.DecodeEthernet(rec.Data, rec.WireLen, rec.TS)
		} else {
			err = p.DecodeIP(rec.Data, rec.WireLen, rec.TS)
		}
		if err != nil {
			skipped++
			continue
		}
		pkts = append(pkts, p)
	}
}

// errClass is the sentinel an error wraps, if any: the identity ReadPcap,
// PcapSource and the reference must share beside the error text.
func errClass(err error) error {
	for _, class := range []error{pcap.ErrBadMagic, pcap.ErrSnapLen, pcap.ErrCorruptHdr, io.ErrUnexpectedEOF, io.EOF, errInjected} {
		if errors.Is(err, class) {
			return class
		}
	}
	return nil
}

// matchSource fails t unless ReadPcap at 1, 2 and 4 decoders and
// PcapSource drained 1, 7 and 256 slots at a time, each reading capture
// through wrap, return exactly what the reference does: the same error,
// class and text, and — ReadPcap only when there is none — the same
// packets in order and the same skip count.
func matchSource(t testing.TB, capture []byte, wrap func(io.Reader) io.Reader) {
	t.Helper()
	want, wantSkipped, wantErr := reference(wrap(bytes.NewReader(capture)))
	matchErr := func(what string, err error) {
		t.Helper()
		if (err != nil) != (wantErr != nil) || errClass(err) != errClass(wantErr) ||
			(err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s: error %v, reference error %v", what, err, wantErr)
		}
	}
	matchPkts := func(what string, got []packet.Packet, skipped int) {
		t.Helper()
		if len(got) != len(want) || skipped != wantSkipped {
			t.Fatalf("%s: %d packets, %d skipped; reference %d, %d", what, len(got), skipped, len(want), wantSkipped)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: packet %d = %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	for _, decoders := range []int{1, 2, 4} {
		what := fmt.Sprintf("ReadPcap, %d decoders", decoders)
		tr, err := readPcap(wrap(bytes.NewReader(capture)), decoders)
		matchErr(what, err)
		if err == nil {
			matchPkts(what, tr.Packets, tr.Skipped)
		}
	}
	for _, slots := range []int{1, 7, 256} {
		what := fmt.Sprintf("PcapSource, %d slots", slots)
		pr, err := pcap.NewReader(wrap(bytes.NewReader(capture)))
		if err != nil {
			matchErr(what, err)
			continue
		}
		src := NewPcapSource(pr)
		got, end, broken := readAll(src, []int{slots})
		if broken != nil {
			t.Fatalf("%s: %v", what, broken)
		}
		if errors.Is(end, io.EOF) {
			end = nil
		}
		matchErr(what, end)
		matchPkts(what, got, src.Skipped)
	}
}

func whole(r io.Reader) io.Reader { return r }

// trickle hands out at most n bytes per Read, so the reader's blocks are
// as small as a slow pipe's and a capture crosses many block seams.
type trickle struct {
	r io.Reader
	n int
}

func (t *trickle) Read(p []byte) (int, error) { return t.r.Read(p[:min(len(p), t.n)]) }

func trickled(n int) func(io.Reader) io.Reader {
	return func(r io.Reader) io.Reader { return &trickle{r: r, n: n} }
}

// blockSeams returns the stream offsets at which pcap.Reader.NextBlock
// ends its blocks over capture: each block's Data starts at the first byte
// the previous one did not return.
func blockSeams(t testing.TB, capture []byte) []int {
	t.Helper()
	pr, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	var seams []int
	var b pcap.Block
	for at := 0; ; {
		if err := pr.NextBlock(&b); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			return seams
		}
		at += len(b.Data)
		seams = append(seams, at)
	}
}

// TestReadPcapMatchesSource checks the parallel materialisation around its
// seams: a capture ending just before, on and just after the reader's
// first two block boundaries and its last full-sized one, whole or
// trickled in small reads (hundreds of blocks), at 1, 2 and 4 decoders,
// returns exactly what the record-by-record reference does, in order — and
// so does PcapSource, whatever its read size.
func TestReadPcapMatchesSource(t *testing.T) {
	raw, ends, _ := wireCapture(t, 33_000)
	seams := blockSeams(t, raw)
	if len(seams) < 6 {
		t.Fatalf("capture of %d bytes spans %d blocks, want at least 6", len(raw), len(seams))
	}
	counts := []int{0, 1, 2, len(ends) - 1}
	for _, seam := range []int{seams[0], seams[1], seams[len(seams)-2]} {
		k := sort.SearchInts(ends, seam) // ends[k] is the first IP frame end at or past the seam
		counts = append(counts, k-1, k, min(k+1, len(ends)-1))
	}
	for _, n := range counts {
		matchSource(t, raw[:ends[n]], whole)
	}
	matchSource(t, raw, trickled(4099))
}

// errInjected is the non-EOF failure errAfter's reader returns.
var errInjected = errors.New("injected read failure")

// errAfter reads n bytes of r, then fails with errInjected.
type errAfter struct {
	r io.Reader
	n int
}

func (e *errAfter) Read(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, errInjected
	}
	m, err := e.r.Read(p[:min(len(p), e.n)])
	e.n -= m
	return m, err
}

// TestReadPcapErrorsMidCapture injects each kind of failure several blocks
// into a trickled capture — a torn tail, a record header breaking the
// snap length, and a reader failing with a non-EOF error — and checks that
// ReadPcap and PcapSource return the reference's error (ReadPcap at every
// decoder count) and that ReadPcap leaves no goroutine behind.
func TestReadPcapErrorsMidCapture(t *testing.T) {
	raw, ends, _ := wireCapture(t, 3000)
	cut := ends[2500]
	badSnap := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(badSnap[cut+8:], 97) // incl above the 96-byte snap
	cases := []struct {
		name    string
		capture []byte
		wrap    func(io.Reader) io.Reader
		class   error
	}{
		{"torn tail", raw[:cut+30], trickled(4099), io.ErrUnexpectedEOF},
		{"bad snap length", badSnap, trickled(4099), pcap.ErrSnapLen},
		{"read error", raw, func(r io.Reader) io.Reader { return &errAfter{r: trickled(4099)(r), n: cut + 7} }, errInjected},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			matchSource(t, c.capture, c.wrap)
			base := runtime.NumGoroutine()
			for _, decoders := range []int{1, 2, 4} {
				tr, err := readPcap(c.wrap(bytes.NewReader(c.capture)), decoders)
				if tr != nil || !errors.Is(err, c.class) {
					t.Fatalf("%d decoders: ReadPcap = %v, %v; want %v", decoders, tr, err, c.class)
				}
				// A decoder that has signalled done may still be on its way
				// out (as may the last test's); one that is stuck never leaves.
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d decoders: %d goroutines after ReadPcap, %d before", decoders, runtime.NumGoroutine(), base)
					}
				}
			}
		})
	}
}

// TestReadPcapAllocs pins the materialised path's allocation count: blocks
// and bookkeeping only, nothing per frame. A header scratch that escapes,
// a per-frame error value or a truth map built on load all fail it.
func TestReadPcapAllocs(t *testing.T) {
	const frames = 100_000
	raw, ends, nonIP := wireCapture(t, frames)
	var tr *Trace
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if tr, err = ReadPcap(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})
	if len(tr.Packets) != len(ends)-1 || tr.Skipped != nonIP || nonIP != frames/100 {
		t.Fatalf("read %d packets, skipped %d; want %d and %d", len(tr.Packets), tr.Skipped, len(ends)-1, nonIP)
	}
	if perFrame := allocs / frames; perFrame > 0.05 {
		t.Errorf("ReadPcap: %.0f allocations for %d frames (%.3f per frame), want <= 0.05 per frame", allocs, frames, perFrame)
	}
}

// FuzzReadPcap is the differential target for the parallel load and the
// stream: for any bytes, read whole or in reads of chunk bytes (many small
// blocks), ReadPcap at 1, 2 and 4 decoders and PcapSource at 1, 7 and 256
// slots return exactly what the record-by-record reference does — the
// same packets, the same skip count, the same error (matchSource).
func FuzzReadPcap(f *testing.F) {
	raw, ends, _ := wireCapture(f, 300)
	valid := raw[:ends[5]]
	f.Add(valid[:ends[3]+9], uint16(0))  // truncated header
	f.Add(valid[:ends[3]+40], uint16(0)) // truncated body
	snap := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(snap[ends[2]+8:], 200) // incl above the 96-byte snap
	f.Add(snap, uint16(0))
	huge := append([]byte(nil), valid[:ends[1]]...)
	binary.LittleEndian.PutUint32(huge[16:], 0) // no snap length: only the cap bounds incl
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[8:], 1<<27)
	binary.LittleEndian.PutUint32(rec[12:], 1<<27)
	f.Add(append(huge, append(rec[:], 1, 2, 3)...), uint16(0))
	f.Add(bigEndianMicros(f, valid), uint16(0))
	f.Add(rawIP(f, valid), uint16(0))
	f.Add(raw, uint16(613)) // ~50 blocks: the decoders run in parallel

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		wrap := whole
		if chunk > 0 {
			wrap = trickled(int(chunk))
		}
		matchSource(t, data, wrap)
	})
}

// bigEndianMicros re-encodes a little-endian nanosecond capture the way a
// big-endian host's tcpdump writes it: byte-swapped headers, microsecond
// timestamps.
func bigEndianMicros(t testing.TB, capture []byte) []byte {
	t.Helper()
	le, be := binary.LittleEndian, binary.BigEndian
	out := make([]byte, 24, len(capture))
	be.PutUint32(out[0:], 0xA1B2C3D4)
	be.PutUint16(out[4:], 2)
	be.PutUint16(out[6:], 4)
	be.PutUint32(out[16:], le.Uint32(capture[16:]))
	be.PutUint32(out[20:], le.Uint32(capture[20:]))
	for at := 24; at < len(capture); {
		incl := le.Uint32(capture[at+8:])
		var hdr [16]byte
		be.PutUint32(hdr[0:], le.Uint32(capture[at:]))
		be.PutUint32(hdr[4:], le.Uint32(capture[at+4:])/1000)
		be.PutUint32(hdr[8:], incl)
		be.PutUint32(hdr[12:], le.Uint32(capture[at+12:]))
		out = append(append(out, hdr[:]...), capture[at+16:at+16+int(incl)]...)
		at += 16 + int(incl)
	}
	return out
}

// rawIP re-encodes an Ethernet capture as a raw-IP one (DLT_RAW): the
// 14-byte Ethernet header goes, the IP packet stays.
func rawIP(t testing.TB, capture []byte) []byte {
	t.Helper()
	pr, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.LinkRaw, 0)
	for {
		rec, err := pr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec.TS, rec.WireLen-14, rec.Data[14:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeCorpus is one block of Ethernet frames reaching every branch of the
// frame decoders — each protocol, VLAN and QinQ tags, fragments, an IPv6
// extension chain and one too long to walk, malformed headers, and every
// prefix of the longest frames, so each truncation check fires — and the
// same frames without their Ethernet header as a raw-IP block.
func decodeCorpus(t *testing.T) (eth, raw pcap.Block) {
	t.Helper()
	build := func(k packet.FlowKey) []byte {
		f, err := packet.BuildEthernet(packet.Packet{Key: k, Len: 60}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	v6 := func(proto uint8) packet.FlowKey {
		k := packet.V4Key(1, 2, 3, 4, proto)
		k.IsV6, k.SrcIP[15], k.DstIP[0] = true, 9, 0x20
		return k
	}
	// withV6Ext inserts 8-byte extension headers of the given types between
	// an IPv6 header and its TCP header; frag sets a fragment header's M bit.
	withV6Ext := func(frag bool, types ...uint8) []byte {
		f := build(v6(packet.ProtoTCP))
		out := append([]byte(nil), f[:14+40]...)
		out[14+6] = types[0]
		for i, ty := range types {
			next := uint8(packet.ProtoTCP)
			if i+1 < len(types) {
				next = types[i+1]
			}
			h := []byte{next, 0, 0, 0, 0, 0, 0, 0}
			if ty == 44 && frag {
				h[3] = 1
			}
			out = append(out, h...)
		}
		return append(out, f[14+40:]...)
	}
	tcp4 := build(packet.V4Key(1, 2, 3, 4, packet.ProtoTCP))
	vlan := append(append(append([]byte(nil), tcp4[:12]...), 0x81, 0x00, 0x00, 0x05), tcp4[12:]...)
	qinq := append(append(append([]byte(nil), tcp4[:12]...), 0x81, 0x00, 0x00, 0x01, 0x81, 0x00, 0x00, 0x02), tcp4[12:]...)
	icmp4 := build(packet.V4Key(1, 2, 8, 0, packet.ProtoICMP))
	chain := withV6Ext(false, 0, 43, 60, 44)
	frames := [][]byte{
		tcp4, vlan, qinq, icmp4,
		build(packet.V4Key(1, 2, 3, 4, packet.ProtoUDP)),
		build(v6(packet.ProtoTCP)), build(v6(packet.ProtoUDP)), build(v6(packet.ProtoICMPv6)),
		chain, withV6Ext(true, 44), withV6Ext(false, 60, 60, 60, 60, 60, 60),
	}
	edit := func(f []byte, at int, b byte) []byte {
		f = append([]byte(nil), f...)
		f[at] = b
		return f
	}
	frames = append(frames,
		edit(tcp4, 14+6, 0x20),    // IPv4 first fragment
		edit(tcp4, 14+9, 47),      // GRE: unsupported L4
		edit(tcp4, 14, 0x44),      // IHL below 20
		edit(tcp4, 14, 0x65),      // IPv4 ethertype, version 6
		edit(chain, 14, 0x45),     // IPv6 ethertype, version 4
		edit(tcp4, 13, 0x06),      // ARP
		edit(chain, 14+40+1, 200), // extension header longer than the frame
	)
	for _, f := range [][]byte{qinq, chain, icmp4, withV6Ext(true, 44)} {
		for n := range len(f) {
			frames = append(frames, f[:n])
		}
	}
	add := func(b *pcap.Block, f []byte) {
		wire := uint32(len(f))
		if len(b.Frames) == 0 {
			wire = 1 << 20 // a length past the 16-bit field, clamped
		}
		b.Frames = append(b.Frames, pcap.Frame{TS: int64(len(b.Frames)), Off: uint32(len(b.Data)), Incl: uint32(len(f)), WireLen: wire})
		b.Data = append(b.Data, f...)
	}
	for _, f := range frames {
		add(&eth, f)
		if len(f) >= 14 && f[12] != 0x81 {
			add(&raw, f[14:])
		}
	}
	add(&raw, nil)                      // empty datagram
	add(&raw, edit(tcp4[14:], 0, 0x55)) // version 5
	return eth, raw
}

// TestDecodeFramesZeroAllocs: decodeFrames, the //im:hotpath root of
// ReadPcap and PcapSource, allocates nothing on either link type — on the
// frames it decodes and the frames it skips, whatever the error, and when
// its output fills before its frames run out.
func TestDecodeFramesZeroAllocs(t *testing.T) {
	eth, raw := decodeCorpus(t)
	out := make([]packet.Packet, 7)
	for _, c := range []struct {
		link  pcap.LinkType
		block pcap.Block
	}{{pcap.LinkEthernet, eth}, {pcap.LinkRaw, raw}} {
		var decoded, skipped int
		allocs := testing.AllocsPerRun(20, func() {
			for frames := c.block.Frames; len(frames) > 0; {
				n, used := decodeFrames(c.link, c.block.Data, frames, out)
				decoded, skipped, frames = decoded+n, skipped+used-n, frames[used:]
			}
		})
		if allocs != 0 {
			t.Errorf("link %d: decodeFrames allocates %.2f objects per pass over %d frames, want 0", c.link, allocs, len(c.block.Frames))
		}
		if decoded == 0 || skipped == 0 {
			t.Errorf("link %d: %d frames decoded, %d skipped; want both", c.link, decoded, skipped)
		}
	}
}
