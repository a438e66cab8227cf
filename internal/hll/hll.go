// Package hll implements HyperLogLog cardinality estimation, the
// distinct-counting substrate behind the SuperSpreader and DDoS detection
// applications the paper names as consumers of WSAF mice samples
// (Section II). Implemented from scratch over the standard library:
// 2^Precision 6-bit registers (stored as bytes), bias-corrected raw
// estimation, and linear-counting small-range correction.
package hll

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Precision bounds.
const (
	MinPrecision = 4
	MaxPrecision = 16
)

// ErrPrecision rejects out-of-range precisions.
var ErrPrecision = errors.New("hll: precision must be in [4, 16]")

// Sketch is a HyperLogLog estimator. The zero value is not usable; call
// New. It is not safe for concurrent use.
type Sketch struct {
	precision uint8
	registers []uint8
}

// New returns a Sketch with 2^precision registers (2^precision bytes of
// memory). Precision 14 gives ~0.8% standard error; the applications here
// default to 10 (~3%).
func New(precision int) (*Sketch, error) {
	if precision < MinPrecision || precision > MaxPrecision {
		return nil, fmt.Errorf("%w (got %d)", ErrPrecision, precision)
	}
	return &Sketch{
		precision: uint8(precision),
		registers: make([]uint8, 1<<precision),
	}, nil
}

// MustNew is New for statically-known-good precisions; it panics on error.
func MustNew(precision int) *Sketch {
	s, err := New(precision)
	if err != nil {
		panic(err)
	}
	return s
}

// Add records one element by its 64-bit hash and reports whether a
// register rose — the only way Estimate's answer can change.
func (s *Sketch) Add(h uint64) bool {
	p := s.precision
	idx := h >> (64 - p)
	w := h<<p | 1<<(p-1) // guard bit keeps rank bounded without branching
	rank := uint8(bits.LeadingZeros64(w)) + 1
	if rank > s.registers[idx] {
		s.registers[idx] = rank
		return true
	}
	return false
}

// Estimate returns the estimated number of distinct elements added.
func (s *Sketch) Estimate() float64 {
	m := float64(len(s.registers))
	var sum float64
	var zeros int
	for _, r := range s.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := alpha(len(s.registers)) * m * m / sum
	// Small-range correction: linear counting.
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// Merge folds other into s (register-wise max). Both sketches must share
// the same precision.
func (s *Sketch) Merge(other *Sketch) error {
	if s.precision != other.precision {
		return fmt.Errorf("hll: merge precision mismatch (%d vs %d)",
			s.precision, other.precision)
	}
	for i, r := range other.registers {
		if r > s.registers[i] {
			s.registers[i] = r
		}
	}
	return nil
}

// Reset clears all registers.
func (s *Sketch) Reset() {
	for i := range s.registers {
		s.registers[i] = 0
	}
}

// MemoryBytes returns the register array size.
func (s *Sketch) MemoryBytes() int { return len(s.registers) }

// Precision returns the configured precision.
func (s *Sketch) Precision() int { return int(s.precision) }

// StdError returns the theoretical relative standard error 1.04/sqrt(m).
func (s *Sketch) StdError() float64 {
	return 1.04 / math.Sqrt(float64(len(s.registers)))
}

func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}
