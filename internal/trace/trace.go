// Package trace provides the workload substrate for every experiment:
// deterministic synthetic trace generators shaped like the paper's two
// datasets (the CAIDA 2016 one-hour trace and the 113-hour campus gateway
// capture), exact ground-truth accounting, heavy-hitter injection, and
// replay sources for both in-memory traces and pcap files.
//
// The paper's datasets are not redistributable, so the generators reproduce
// the properties the evaluation actually depends on: a Zipf-like flow-size
// distribution, a realistic flow/packet ratio, protocol mix, per-flow packet
// sizes, and (for the campus trace) diurnal load. Every generator takes an
// explicit seed and is fully deterministic.
package trace

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"instameasure/internal/packet"
	"instameasure/internal/pcap"
)

// Source is a stream of packets in timestamp order, read by the burst:
// the pipeline's workers pay one interface call per burst, not per packet.
// NextBatch fills buf from the front and returns how many packets it
// wrote. A short count with a nil error is a partial read (what has
// arrived, the tail of a stripe or of the stream); errors — io.EOF after
// the last packet included — come only with n == 0, so a caller never has
// to process packets and handle an error from the same call. A zero-length
// buf consumes nothing.
type Source interface {
	NextBatch(buf []packet.Packet) (int, error)
}

// FlowTruth is the exact ground truth for one flow.
type FlowTruth struct {
	Pkts    uint64
	Bytes   uint64
	FirstTS int64
	LastTS  int64
}

// Trace is a materialized packet trace with exact per-flow ground truth.
// The truth is built by the first call that asks for it, from Packets as
// they are then, so a run that only replays the trace never pays for an
// oracle it does not consult; do not change Packets after that call, and
// do not copy a Trace.
type Trace struct {
	Packets []packet.Packet
	// Skipped counts the capture frames ReadPcap left out of Packets (not
	// IP, no L4 ports, or truncated); 0 for generated traces.
	Skipped int

	truthOnce sync.Once
	truth     map[packet.FlowKey]*FlowTruth
}

// FromPackets builds a Trace from packets in arbitrary order: the slice is
// copied, sorted by timestamp, and accounted.
func FromPackets(pkts []packet.Packet) *Trace {
	sorted := make([]packet.Packet, len(pkts))
	copy(sorted, pkts)
	sortByTS(sorted)
	return NewTrace(sorted)
}

// NewTrace builds a Trace from packets. The slice is retained, not copied.
func NewTrace(pkts []packet.Packet) *Trace {
	return &Trace{Packets: pkts}
}

// truthMap returns the per-flow ground truth, accounting every packet on
// first use. Safe for concurrent callers.
func (t *Trace) truthMap() map[packet.FlowKey]*FlowTruth {
	t.truthOnce.Do(func() {
		t.truth = make(map[packet.FlowKey]*FlowTruth)
		for i := range t.Packets {
			p := &t.Packets[i]
			ft := t.truth[p.Key]
			if ft == nil {
				ft = &FlowTruth{FirstTS: p.TS, LastTS: p.TS}
				t.truth[p.Key] = ft
			}
			ft.Pkts++
			ft.Bytes += uint64(p.Len)
			if p.TS < ft.FirstTS {
				ft.FirstTS = p.TS
			}
			if p.TS > ft.LastTS {
				ft.LastTS = p.TS
			}
		}
	})
	return t.truth
}

// Truth returns the ground truth for key, or nil if the flow never
// appeared.
func (t *Trace) Truth(key packet.FlowKey) *FlowTruth {
	return t.truthMap()[key]
}

// Flows returns the number of distinct flows.
func (t *Trace) Flows() int { return len(t.truthMap()) }

// EachTruth calls fn for every flow. Iteration order is unspecified.
func (t *Trace) EachTruth(fn func(packet.FlowKey, *FlowTruth)) {
	for k, ft := range t.truthMap() {
		fn(k, ft)
	}
}

// TopTruth returns the k largest flows by the given metric (e.g. packets
// or bytes), largest first.
func (t *Trace) TopTruth(k int, metric func(*FlowTruth) float64) []packet.FlowKey {
	truth := t.truthMap()
	keys := make([]packet.FlowKey, 0, len(truth))
	for key := range truth {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		mi := metric(truth[keys[i]])
		mj := metric(truth[keys[j]])
		if mi != mj {
			return mi > mj
		}
		// Deterministic tiebreak for reproducible Top-K sets.
		return keys[i].SrcPort < keys[j].SrcPort
	})
	if k < len(keys) {
		keys = keys[:k]
	}
	return keys
}

// Duration returns LastTS−FirstTS across the trace, or 0 for empty traces.
func (t *Trace) Duration() int64 {
	if len(t.Packets) == 0 {
		return 0
	}
	return t.Packets[len(t.Packets)-1].TS - t.Packets[0].TS
}

// Source returns a replay Source over the trace.
func (t *Trace) Source() Source {
	return &sliceSource{pkts: t.Packets}
}

// Merge combines traces into one timestamp-ordered trace with merged
// ground truth.
func Merge(traces ...*Trace) *Trace {
	var total int
	for _, tr := range traces {
		total += len(tr.Packets)
	}
	pkts := make([]packet.Packet, 0, total)
	for _, tr := range traces {
		pkts = append(pkts, tr.Packets...)
	}
	sortByTS(pkts)
	return NewTrace(pkts)
}

type sliceSource struct {
	pkts []packet.Packet
	i    int
}

// NextBatch copies up to len(buf) packets into buf — one memmove instead
// of per-packet interface calls.
func (s *sliceSource) NextBatch(buf []packet.Packet) (int, error) {
	if s.i >= len(s.pkts) {
		return 0, io.EOF
	}
	n := copy(buf, s.pkts[s.i:])
	s.i += n
	return n, nil
}

// PcapSource replays a pcap stream as a Source, parsing each frame into a
// flow key. Frames that are not IP or carry an unsupported L4 protocol are
// counted and skipped.
type PcapSource struct {
	r       *pcap.Reader
	Skipped int
	block   pcap.Block // the records the reader last handed over
	next    int        // block.Frames[next:] are not yet decoded
}

// NewPcapSource wraps an open pcap reader.
func NewPcapSource(r *pcap.Reader) *PcapSource {
	return &PcapSource{r: r}
}

// NextBatch parses frames straight into buf's slots. It reads a new block
// — every whole record the reader holds, or the next one to arrive — only
// when the last is used up and buf is still empty, so a packet is returned
// as soon as its record has arrived and the end of a block is a short
// read. The reader's error (io.EOF at the end) is returned on the read
// after the last packet.
func (s *PcapSource) NextBatch(buf []packet.Packet) (int, error) {
	n := 0
	for n < len(buf) {
		if s.next == len(s.block.Frames) {
			if n > 0 {
				break
			}
			if err := checkLink(s.r.LinkType()); err != nil {
				return 0, err
			}
			if err := s.r.NextBlock(&s.block); err != nil {
				return 0, err
			}
			s.next = 0
		}
		k, used := decodeFrames(s.r.LinkType(), s.block.Data, s.block.Frames[s.next:], buf[n:])
		n, s.next, s.Skipped = n+k, s.next+used, s.Skipped+used-k
	}
	return n, nil
}

// checkLink rejects the link types the parsers cannot read.
func checkLink(link pcap.LinkType) error {
	if link != pcap.LinkEthernet && link != pcap.LinkRaw {
		return fmt.Errorf("trace: unsupported link type %d", link)
	}
	return nil
}

// decodeFrames parses frames, whose bytes are in block, straight into the
// slots of out until either runs out, leaving out the frames the meter
// skips: n packets written, used frames consumed. It is the one decode
// loop of ReadPcap and PcapSource.
//
//im:hotpath
func decodeFrames(link pcap.LinkType, block []byte, frames []pcap.Frame, out []packet.Packet) (n, used int) {
	for ; used < len(frames) && n < len(out); used++ {
		f := &frames[used]
		data := block[f.Off : f.Off+f.Incl]
		var err error
		if link == pcap.LinkEthernet {
			err = out[n].DecodeEthernet(data, int(f.WireLen), f.TS)
		} else {
			err = out[n].DecodeIP(data, int(f.WireLen), f.TS)
		}
		if err == nil {
			n++
		}
	}
	return n, used
}

// WritePcap writes the trace to w as an Ethernet pcap capture with the
// given snap length (0 means full frames).
func (t *Trace) WritePcap(w io.Writer, snapLen int) error {
	pw := pcap.NewWriter(w, pcap.LinkEthernet, snapLen)
	for i := range t.Packets {
		p := t.Packets[i]
		frame, err := packet.BuildEthernet(p, snapLen)
		if err != nil {
			return fmt.Errorf("packet %d: %w", i, err)
		}
		if err := pw.Write(p.TS, int(p.Len), frame); err != nil {
			return fmt.Errorf("packet %d: %w", i, err)
		}
	}
	return pw.Flush()
}

// ReadPcap materializes a pcap stream into a Trace. The calling goroutine
// reads blocks of whole records and GOMAXPROCS decoders parse each into a
// packet block of its own; the packet count is unknown until EOF, so the
// packet blocks are then copied, in order and in parallel, into one slice
// of the exact size. A capture that fits in one block, or GOMAXPROCS 1,
// decodes on the caller and starts no goroutine.
func ReadPcap(r io.Reader) (*Trace, error) {
	return readPcap(r, runtime.GOMAXPROCS(0))
}

// rawBlock is one block of records and, once decoded, its packets.
type rawBlock struct {
	raw  *pcap.Block
	pkts []packet.Packet
}

// readPcap is ReadPcap on the given number of decoders.
func readPcap(r io.Reader, decoders int) (*Trace, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, err
	}
	link := pr.LinkType()
	if err := checkLink(link); err != nil {
		return nil, err
	}
	// Beside the Reader's own buffer, two raw blocks per decoder are being
	// read into, queued or decoded: raw memory is O(decoders × block).
	free := make(chan *pcap.Block, 2*max(decoders, 1))
	for range cap(free) {
		free <- new(pcap.Block)
	}
	decode := func(b *rawBlock) {
		b.pkts = make([]packet.Packet, len(b.raw.Frames))
		n, _ := decodeFrames(link, b.raw.Data, b.raw.Frames, b.pkts)
		b.pkts = b.pkts[:n]
		free <- b.raw
	}
	var (
		blocks []*rawBlock
		frames int
		jobs   chan *rawBlock // started by the second block
		wg     sync.WaitGroup
	)
	for {
		b := &rawBlock{raw: <-free}
		if err = pr.NextBlock(b.raw); err != nil {
			break
		}
		blocks, frames = append(blocks, b), frames+len(b.raw.Frames)
		if decoders <= 1 || len(blocks) == 1 {
			decode(b)
			continue
		}
		if jobs == nil {
			// A block queued per decoder keeps each busy while the
			// reader reads the next.
			jobs = make(chan *rawBlock, decoders)
			wg.Add(decoders)
			for range decoders {
				go func() {
					defer wg.Done()
					for b := range jobs {
						decode(b)
					}
				}()
			}
		}
		jobs <- b
	}
	if jobs != nil {
		close(jobs)
		wg.Wait()
	}
	if !errors.Is(err, io.EOF) {
		return nil, err
	}
	pkts := gather(blocks, decoders)
	return &Trace{Packets: pkts, Skipped: frames - len(pkts)}, nil
}

// gather copies the packet blocks, in order, into one slice of the exact
// size, on the caller and up to workers-1 more goroutines.
func gather(blocks []*rawBlock, workers int) []packet.Packet {
	at := make([]int, len(blocks)+1)
	for i, b := range blocks {
		at[i+1] = at[i] + len(b.pkts)
	}
	pkts := make([]packet.Packet, at[len(blocks)])
	workers = max(min(workers, len(blocks)), 1)
	copyShare := func(w int) {
		for i := w * len(blocks) / workers; i < (w+1)*len(blocks)/workers; i++ {
			copy(pkts[at[i]:], blocks[i].pkts)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			copyShare(w)
		}()
	}
	copyShare(0)
	wg.Wait()
	return pkts
}

func sortByTS(pkts []packet.Packet) {
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].TS < pkts[j].TS })
}
