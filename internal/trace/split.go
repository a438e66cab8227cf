package trace

import (
	"io"
	"runtime"
	"sync"

	"instameasure/internal/packet"
)

// SplitChunk is the stripe width of Split: each part owns consecutive
// runs of SplitChunk packets, interleaved round-robin across parts. The
// width matches the pipeline's default burst so a worker's NextBatch
// usually fills in one copy, and consecutive stripes keep each part's
// packets in rough timestamp order (within one chunk-round of skew).
const SplitChunk = 256

// SplittableSource is a Source that can be divided into independent
// per-worker sub-sources — the shared-nothing pipeline's ingest contract.
// Split consumes the receiver: after the call only the returned parts may
// be read, each from its own goroutine (the parts themselves are not
// individually concurrency-safe). Every packet of the underlying stream
// appears in exactly one part, exactly once (FuzzSplitConservation).
type SplittableSource interface {
	Source
	Split(parts int) []Source
}

// Split divides the replay source's remaining packets into parts by
// striping SplitChunk-sized runs round-robin. sliceSource implements
// SplittableSource; pcap streams do not (one decoder owns the file) and
// are shared instead (Share).
func (s *sliceSource) Split(parts int) []Source {
	if parts < 1 {
		parts = 1
	}
	rem := s.pkts[s.i:] // rebase so part offsets stay chunk-aligned
	s.i = len(s.pkts)   // the receiver is consumed
	out := make([]Source, parts)
	for i := range out {
		out[i] = &stripeSource{pkts: rem, next: i * SplitChunk, stride: parts * SplitChunk}
	}
	return out
}

// Share is Split for a source that cannot be divided (a pcap stream, a
// paced source, any caller-supplied Source): every part is the same
// handle, and each NextBatch pulls one burst from src under a mutex, so
// the workers take turns reading and every packet goes to exactly one of
// them. Only the read is serialized — the lock is released before the
// caller touches the burst. Once src errors, every later read by any
// worker returns that error.
func Share(src Source, parts int) []Source {
	out := make([]Source, max(parts, 1))
	shared := &sharedSource{src: src}
	for i := range out {
		out[i] = shared
	}
	return out
}

type sharedSource struct {
	mu  sync.Mutex
	src Source
	err error // the error that ended src; sticky
}

func (s *sharedSource) NextBatch(buf []packet.Packet) (int, error) {
	// Poll for the turn rather than park: a turn lasts one burst (tens of
	// microseconds), a parked worker costs a futex round trip per burst —
	// 130 against 76 ns/packet for two workers on a capture, measured —
	// and the pipeline's workers yield-and-poll wherever else they wait.
	for !s.mu.TryLock() {
		runtime.Gosched()
	}
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	// The one call made under the lock, and the lock's whole purpose: src
	// has a single reader's state. src may block here (a paced source
	// sleeps); the other workers then wait their turn, which is the pacing
	// — polling, so a long block costs them their cores, as idling does
	// everywhere in the pipeline.
	n, err := s.src.NextBatch(buf)
	s.err = err
	return n, err
}

// stripeSource replays every SplitChunk-run of packets whose chunk index
// is congruent to this part's offset. next always points at the first
// undelivered packet of the current owned chunk.
type stripeSource struct {
	pkts   []packet.Packet
	next   int // absolute index of the next packet to deliver
	stride int // parts × SplitChunk: distance between owned chunk starts
}

func (s *stripeSource) chunkEnd() int {
	// End of the owned chunk containing next: its start is next rounded
	// down to the owning chunk's base, which advances by stride.
	base := s.next - (s.next % SplitChunk)
	return min(base+SplitChunk, len(s.pkts))
}

// NextBatch copies from the current owned chunk — at most one chunk per
// call, so reads are one memmove and short reads mark chunk boundaries
// (the Source contract allows both) — and hops to the next owned chunk
// once it has delivered the last packet of this one.
func (s *stripeSource) NextBatch(buf []packet.Packet) (int, error) {
	if s.next >= len(s.pkts) {
		return 0, io.EOF
	}
	n := copy(buf, s.pkts[s.next:s.chunkEnd()])
	s.next += n
	if n > 0 && s.next%SplitChunk == 0 { // crossed into the next (unowned) chunk
		s.next += s.stride - SplitChunk
	}
	return n, nil
}
