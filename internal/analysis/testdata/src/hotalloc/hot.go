// Package hotalloc is the golden fixture for the hotalloc analyzer: one
// annotated root exercising every forbidden construct, a callee that
// inherits hotness through the static call graph, an //im:allow seam, and
// an unannotated function showing the same constructs are legal off the
// hot path.
package hotalloc

import (
	"fmt"
	"sync"
	"time"
)

// Sink keeps fixture results observable.
var Sink string

var mu sync.Mutex

type entry struct{ v uint64 }

type big struct{ v uint64 }

var escape *big

// Process is the annotated hot root.
//
//im:hotpath
func Process(v uint64, name string) int {
	defer cleanup()                // want `hot path: defer in hotalloc\.Process`
	counts := map[uint64]int{v: 1} // want `hot path: map literal allocation in hotalloc\.Process`
	buf := make([]byte, 16)        // want `hot path: make\(slice\) allocation in hotalloc\.Process`
	s := name + "!"                // want `hot path: string concatenation allocation in hotalloc\.Process`
	t0 := time.Now()               // want `hot path: wall-clock read \(time\.Now\) in hotalloc\.Process`
	msg := fmt.Sprintf("%d", v)    // want `hot path: fmt call in hotalloc\.Process`
	clo := func() {}               // want `hot path: closure allocation in hotalloc\.Process`
	mu.Lock()                      // want `hot path: lock acquisition \(\(Mutex\)\.Lock\) in hotalloc\.Process`
	mu.Unlock()
	box(v) // want `hot path: argument 1 boxed into interface`
	clo()
	helper(v)
	Sink = msg

	// Value literals stay on the stack: allowed.
	e := entry{v: v}

	//im:allow hotalloc — fixture: blessed warm-up allocation seam
	warm := make([]uint64, 1)

	return counts[v] + len(buf) + len(s) + int(t0.Unix()) + int(e.v) + len(warm)
}

func cleanup() {}

func box(v any) { _ = v }

// helper is hot by propagation: Process calls it statically.
func helper(v uint64) {
	escape = &big{v: v} // want `hot path: heap-escaping composite literal \(&T\{\.\.\.\}\) in hotalloc\.helper \(hot via hotalloc\.Process\)`
}

// cold is not annotated and not reachable from a hot root: the same
// constructs are legal here.
func cold(v uint64) string {
	defer cleanup()
	mu.Lock()
	defer mu.Unlock()
	m := map[uint64]int{v: 1}
	return fmt.Sprintf("%d@%s", len(m), time.Now())
}
