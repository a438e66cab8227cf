package topk

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

type row struct {
	id    int
	score float64
}

// TestSelectorMatchesStableSort: for any k, the selection is the first k
// rows of a stable descending sort of the offers — which is what defines
// the tie-break (equal score: earlier offer first).
func TestSelectorMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 100, 1000} {
		rows := make([]row, n)
		for i := range rows {
			// A handful of distinct scores, so ties are the common case.
			rows[i] = row{id: i, score: float64(rng.Intn(12))}
		}
		ref := slices.Clone(rows)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].score > ref[j].score })

		for _, k := range []int{-3, 0, 1, 2, n / 2, n - 1, n, n + 1, 10 * n} {
			sel := New[row](k)
			for i := range rows {
				sel.Offer(rows[i].score, &rows[i])
			}
			want := ref[:max(0, min(k, n))]
			if got := sel.Sorted(); !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: got %v, want %v", n, k, got, want)
			}
		}
	}
}

// TestTiedSelectorMatchesFullSort: with a tie order the selection is the
// first k rows of a full sort by (score descending, less), whatever order
// the rows were offered in.
func TestTiedSelectorMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	byID := func(a, b *row) bool { return a.id < b.id }
	for _, n := range []int{0, 1, 7, 100, 1000} {
		rows := make([]row, n)
		for i, id := range rng.Perm(n) {
			rows[i] = row{id: id, score: float64(rng.Intn(12))}
		}
		ref := slices.Clone(rows)
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].score != ref[j].score {
				return ref[i].score > ref[j].score
			}
			return ref[i].id < ref[j].id
		})
		for _, k := range []int{-3, 0, 1, 2, n / 2, n - 1, n, n + 1, 10 * n} {
			sel := NewTied(k, byID)
			for i := range rows {
				sel.Offer(rows[i].score, &rows[i])
			}
			want := ref[:max(0, min(k, n))]
			if got := sel.Sorted(); !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: got %v, want %v", n, k, got, want)
			}
		}
	}
}

// TestSelectorCopiesOnKeep: the value is read through the pointer at Offer
// time, so the caller may reuse the pointee for the next offer.
func TestSelectorCopiesOnKeep(t *testing.T) {
	sel := New[row](2)
	var scratch row
	for i, s := range []float64{3, 9, 5} {
		scratch = row{id: i, score: s}
		sel.Offer(s, &scratch)
	}
	if got, want := sel.Sorted(), []row{{1, 9}, {2, 5}}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
