// Package topk is the one top-k selection: a bounded min-heap fed during a
// walk, then a sort of the k survivors only. Cost is O(n log k) time and
// O(k) space for n offers — a query over a table of live flows never
// copies or sorts the flows it does not return.
//
// Order is total: larger score first, and among equal scores the value
// offered earlier first. Fed from the WSAF's walk, which is in insertion
// order, that is "the earlier entry first"; the result is therefore the
// first k rows of a stable descending sort of the whole walk. The
// collection tier's rankings break ties by flow key instead (NewTied), so
// their answers do not depend on the order flows were first seen in.
package topk

import "slices"

// Selector keeps the k best values offered so far. The zero value selects
// nothing; build one with New.
type Selector[T any] struct {
	k    int
	seen int // offers so far; an offer's arrival rank breaks score ties
	// keys is a min-heap once it holds k keys (keys[0] is the survivor that
	// goes next) and plain arrival order before that. Values sit apart in
	// vals so heap moves and the final sort shuffle 24-byte keys, not Ts.
	keys []key
	vals []T
	// less, when set, orders equal scores in place of arrival rank; tie is
	// less over two held keys' values.
	less func(a, b *T) bool
	tie  func(a, b key) bool
}

type key struct {
	score float64
	rank  int
	at    int // index of the value in vals
}

// New returns a Selector for the k best values; k <= 0 keeps none.
func New[T any](k int) *Selector[T] { return &Selector[T]{k: k} }

// NewTied is New with equal scores ordered by less — a strict total order
// over the values offered — instead of by arrival.
func NewTied[T any](k int, less func(a, b *T) bool) *Selector[T] {
	s := &Selector[T]{k: k, less: less}
	s.tie = func(a, b key) bool { return less(&s.vals[a.at], &s.vals[b.at]) }
	return s
}

// before reports whether a comes ahead of b in the final order: larger
// score first; among equal scores earlier offer first, or tie's order when
// it is set. A plain function, so it inlines into the heap and sort loops
// of every instantiation and only a tied selector's ties pay for a call.
func before(a, b key, tie func(a, b key) bool) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if tie == nil {
		return a.rank < b.rank
	}
	return tie(a, b)
}

// Offer considers *v under score. *v is copied only if it is kept, so
// offering a pointer into a table costs one comparison for the flows that
// do not make the cut.
func (s *Selector[T]) Offer(score float64, v *T) {
	rank := s.seen
	s.seen++
	if len(s.keys) < s.k {
		s.keys = append(s.keys, key{score, rank, len(s.vals)})
		s.vals = append(s.vals, *v)
		if len(s.keys) == s.k {
			for i := s.k/2 - 1; i >= 0; i-- {
				s.down(i)
			}
		}
		return
	}
	// A later arrival loses ties, so only a strictly larger score displaces
	// the current minimum — unless less places it ahead of an equal one.
	if s.k <= 0 || !(score > s.keys[0].score) {
		if s.less == nil || s.k <= 0 || score != s.keys[0].score || !s.less(v, &s.vals[s.keys[0].at]) {
			return
		}
	}
	at := s.keys[0].at
	s.vals[at] = *v
	s.keys[0] = key{score, rank, at}
	s.down(0)
}

// Sorted returns the survivors, best first.
func (s *Selector[T]) Sorted() []T {
	slices.SortFunc(s.keys, func(a, b key) int {
		switch {
		case before(a, b, s.tie):
			return -1
		case before(b, a, s.tie):
			return 1
		}
		return 0
	})
	out := make([]T, len(s.keys))
	for i, k := range s.keys {
		out[i] = s.vals[k.at]
	}
	return out
}

// down restores the heap below i: the key that comes last floats to the top.
func (s *Selector[T]) down(i int) {
	for {
		last := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(s.keys); c++ {
			if before(s.keys[last], s.keys[c], s.tie) {
				last = c
			}
		}
		if last == i {
			return
		}
		s.keys[i], s.keys[last] = s.keys[last], s.keys[i]
		i = last
	}
}
