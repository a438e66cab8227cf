//go:build amd64

package prefetch

import "unsafe"

const enabled = true

// T0 hints that the cache line containing p is about to be read, pulling
// it into all cache levels (PREFETCHT0). Advisory only: the instruction
// never faults, even on wild addresses, and the hardware may ignore it.
//
//im:hotpath
//go:noescape
func T0(p unsafe.Pointer)
