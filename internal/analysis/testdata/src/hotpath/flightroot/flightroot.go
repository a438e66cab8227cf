// Package flightroot holds the //im:hotpath root that pulls the fixture
// recorder's seam into the hot call graph. The root is not flight-scoped,
// so it may hash and index maps — hotpath reports nothing here; the
// diagnostics land in hotpath/flight, labeled "hot via flightroot.Record".
package flightroot

import (
	"hotpath/flight"
	"hotpath/flowhash"
)

var (
	rec  flight.Ring
	seen map[uint64]bool
)

// Record is the annotated root: its static call into Ring.Record makes
// the record seam (and everything it calls inside flight) hot.
//
//im:hotpath
func Record(v uint64) {
	if !seen[v] {
		rec.Record(flight.FlowKey{A: v, B: flowhash.Sum64(v)}, v)
	}
}
