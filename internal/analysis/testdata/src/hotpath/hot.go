// Package hotpath is the golden fixture for the hotpath analyzer: one
// annotated root exercising every forbidden construct, a lock inside a
// closure (checked as part of the function holding it), a callee that
// inherits hotness through the static call graph, an //im:allow seam, and
// an unannotated function showing the same constructs are legal off the
// hot path.
package hotpath

import (
	"fmt"
	"sync"
	"time"
)

// Sink keeps fixture results observable.
var Sink string

var mu sync.Mutex

var ch = make(chan uint64, 1)

// Process is the annotated hot root.
//
//im:hotpath
func Process(v uint64) int64 {
	defer cleanup()             // want `hot path: defer in hotpath\.Process`
	go cleanup()                // want `hot path: goroutine launch in hotpath\.Process`
	t0 := time.Now()            // want `hot path: wall-clock read \(time\.Now\) in hotpath\.Process`
	msg := fmt.Sprintf("%d", v) // want `hot path: fmt call in hotpath\.Process`
	mu.Lock()                   // want `hot path: lock acquisition \(\(Mutex\)\.Lock\) in hotpath\.Process`
	mu.Unlock()
	ch <- v  // want `hot path: channel send in hotpath\.Process`
	v = <-ch // want `hot path: channel receive in hotpath\.Process`
	locked := func() {
		mu.Lock() // want `hot path: lock acquisition \(\(Mutex\)\.Lock\) in hotpath\.Process`
		mu.Unlock()
	}
	locked()
	drain(v)
	Sink = msg

	//im:allow hotpath — fixture: blessed sampled clock-read seam
	return int64(time.Since(t0))
}

func cleanup() {}

// drain is hot by propagation: Process calls it statically.
func drain(v uint64) {
	select { // want `hot path: select in hotpath\.drain \(hot via hotpath\.Process\)`
	case ch <- v:
	default:
	}
	for range ch { // want `hot path: range over channel in hotpath\.drain \(hot via hotpath\.Process\)`
		return
	}
}

// cold is not annotated and not reachable from a hot root: the same
// constructs are legal here.
func cold(v uint64) string {
	defer cleanup()
	mu.Lock()
	defer mu.Unlock()
	ch <- v
	return fmt.Sprintf("%d@%s", <-ch, time.Now())
}
