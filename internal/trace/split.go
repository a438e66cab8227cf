package trace

import (
	"runtime"
	"sync"
	"sync/atomic"

	"instameasure/internal/packet"
)

// SplitChunk is the unit Split's parts claim their base in. The width
// matches the pipeline's default burst so a worker's read is usually one
// whole chunk, and chunks claimed in order keep the parts' packets in
// rough timestamp order (within about one chunk per part of skew).
const SplitChunk = 256

// SplittableSource is a Source whose packets are already in memory, so
// the shared-nothing pipeline's workers read them in place. Split consumes
// the receiver: it returns the remaining packets as base and parts stripes
// over it, each read from its own goroutine (a stripe is not itself
// concurrency-safe). Every packet of base belongs to exactly one stripe,
// exactly once (FuzzSplitConservation).
type SplittableSource interface {
	Source
	Split(parts int) (base []packet.Packet, stripes []*Stripe)
}

// Split divides the replay source's remaining packets into parts that
// claim SplitChunk-sized runs in turn. sliceSource implements
// SplittableSource; pcap streams do not (one decoder owns the file) and
// are shared instead (Share).
func (s *sliceSource) Split(parts int) ([]packet.Packet, []*Stripe) {
	base := s.pkts[s.i:]
	s.i = len(s.pkts) // the receiver is consumed
	claims := new(atomic.Int64)
	out := make([]*Stripe, max(parts, 1))
	for i := range out {
		out[i] = &Stripe{claims: claims, n: len(base)}
	}
	return base, out
}

// Stripe is one part of a split source: the SplitChunk-runs of its base
// it claimed, handed out in order as spans of the base — indices, never
// copies. The parts claim the chunks in turn as they read, from one
// shared counter, so a part whose reader has more else to do reads less.
type Stripe struct {
	claims    *atomic.Int64 // chunks claimed by all parts
	next, end int           // what is left of this part's current chunk
	n         int           // len(base)
}

// Next returns the stripe's next span, base[lo:hi]: at most limit
// packets, never past the end of the chunk it starts in. lo == hi once the
// base is exhausted, or when limit is 0 (which consumes nothing).
func (s *Stripe) Next(limit int) (lo, hi int) {
	if s.next == s.end {
		c := int(s.claims.Add(1)-1) * SplitChunk
		if c >= s.n {
			return s.n, s.n
		}
		s.next, s.end = c, min(c+SplitChunk, s.n)
	}
	lo = s.next
	s.next = min(lo+limit, s.end)
	return lo, s.next
}

// Share makes a source that cannot be divided (a pcap stream, a paced
// source, any caller-supplied Source) safe for several readers at once:
// each NextBatch pulls one burst from src under a mutex, so readers take
// turns and every packet goes to exactly one of them. Only the read is
// serialized — the lock is released before the caller touches the burst.
// Once src errors, every later read by any reader returns that error.
func Share(src Source) Source { return &sharedSource{src: src} }

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
