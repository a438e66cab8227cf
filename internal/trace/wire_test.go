package trace

import (
	"bytes"
	"errors"
	"io"
	"sort"
	"sync"
	"testing"

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

// TestReadPcapMatchesSource checks the block-wise materialisation around
// its seams: whatever the packet count, ReadPcap returns exactly what
// draining PcapSource.Next yields, in order.
func TestReadPcapMatchesSource(t *testing.T) {
	raw, ends, _ := wireCapture(t, 2*readBlock+500)
	for _, n := range []int{0, 1, readBlock - 1, readBlock, readBlock + 1, 2*readBlock + 7} {
		capture := raw[:ends[n]]
		pr, err := pcap.NewReader(bytes.NewReader(capture))
		if err != nil {
			t.Fatal(err)
		}
		src := NewPcapSource(pr)
		var want []packet.Packet
		for {
			p, err := src.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, p)
		}
		if len(want) != n {
			t.Fatalf("source yielded %d packets from a %d-packet capture", len(want), n)
		}
		got, err := ReadPcap(bytes.NewReader(capture))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Packets) != n || got.Skipped != src.Skipped {
			t.Fatalf("n=%d: ReadPcap returned %d packets, %d skipped; source %d, %d",
				n, len(got.Packets), got.Skipped, len(want), src.Skipped)
		}
		for i := range want {
			if got.Packets[i] != want[i] {
				t.Fatalf("n=%d: packet %d = %+v, want %+v", n, i, got.Packets[i], want[i])
			}
		}
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
