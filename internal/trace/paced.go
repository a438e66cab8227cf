package trace

import (
	"time"

	"instameasure/internal/packet"
)

// pacedSource throttles an underlying source to a wall-clock packet rate,
// emulating a link that offers traffic slower than the system can consume
// — how the 113-hour deployment actually ran. Pacing is checked in chunks
// so the per-packet overhead stays negligible.
type pacedSource struct {
	src      Source
	perChunk time.Duration
	chunk    int
	count    int
	start    time.Time
	sleep    func(time.Duration)
	now      func() time.Time
}

// NewPacedSource wraps src, limiting delivery to ratePPS packets per
// second of wall-clock time.
func NewPacedSource(src Source, ratePPS float64) Source {
	const chunk = 1024
	return &pacedSource{
		src:      src,
		chunk:    chunk,
		perChunk: time.Duration(float64(chunk) / ratePPS * 1e9),
		sleep:    time.Sleep,
		now:      time.Now,
	}
}

// NextBatch reads a burst from the underlying source on a chunked pacing
// schedule: delivery never runs ahead of the configured rate by more than
// one chunk.
func (p *pacedSource) NextBatch(buf []packet.Packet) (int, error) {
	if p.count == 0 {
		p.start = p.now()
	}
	if p.count > 0 && p.count/p.chunk > 0 {
		expected := p.start.Add(time.Duration(p.count/p.chunk) * p.perChunk)
		if d := expected.Sub(p.now()); d > 0 {
			p.sleep(d)
		}
	}
	// Cap the burst at one pacing chunk so a large buffer cannot blow
	// through several rate windows in a single read.
	if len(buf) > p.chunk {
		buf = buf[:p.chunk]
	}
	n, err := p.src.NextBatch(buf)
	p.count += n
	return n, err
}
