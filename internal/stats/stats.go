// Package stats provides the evaluation math shared by experiments and
// benchmarks: relative-error metrics, standard (RMS relative) error as the
// paper reports it, Top-K recall, heavy-hitter confusion rates, log-scale
// histograms for flow-size distributions, and time-series bucketing.
package stats

import (
	"math"
	"sort"
)

// RelErr returns |est-truth|/truth; 0 if truth is 0 and est is 0, +Inf if
// only truth is 0.
func RelErr(est, truth float64) float64 {
	if truth == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-truth) / truth
}

// MeanRelErr averages RelErr over paired samples; pairs with zero truth are
// skipped. It returns 0 for empty input.
func MeanRelErr(est, truth []float64) float64 {
	var sum float64
	var n int
	for i := range est {
		if truth[i] == 0 {
			continue
		}
		sum += RelErr(est[i], truth[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RMSRelErr is the root-mean-square relative error — the "standard error"
// the paper reports for its 113-hour experiment (Fig. 13). Pairs with zero
// truth are skipped.
func RMSRelErr(est, truth []float64) float64 {
	var sum float64
	var n int
	for i := range est {
		if truth[i] == 0 {
			continue
		}
		e := RelErr(est[i], truth[i])
		sum += e * e
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// Recall returns |got ∩ truth| / |truth| over comparable IDs; 1 for an
// empty truth set.
func Recall[T comparable](got, truth []T) float64 {
	if len(truth) == 0 {
		return 1
	}
	set := make(map[T]struct{}, len(got))
	for _, g := range got {
		set[g] = struct{}{}
	}
	var hit int
	for _, t := range truth {
		if _, ok := set[t]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// Confusion holds binary-classification counts for heavy-hitter detection.
type Confusion struct {
	TP, FP, FN, TN int
}

// Classify builds a Confusion matrix from predicted and true positive ID
// sets drawn from a population of size total.
func Classify[T comparable](predicted, truth []T, total int) Confusion {
	pSet := make(map[T]struct{}, len(predicted))
	for _, p := range predicted {
		pSet[p] = struct{}{}
	}
	tSet := make(map[T]struct{}, len(truth))
	for _, t := range truth {
		tSet[t] = struct{}{}
	}
	var c Confusion
	for p := range pSet {
		if _, ok := tSet[p]; ok {
			c.TP++
		} else {
			c.FP++
		}
	}
	for t := range tSet {
		if _, ok := pSet[t]; !ok {
			c.FN++
		}
	}
	c.TN = total - c.TP - c.FP - c.FN
	if c.TN < 0 {
		c.TN = 0
	}
	return c
}

// FPR is FP / (FP + TN); 0 when there are no true negatives.
func (c Confusion) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// FNR is FN / (FN + TP); 0 when there are no true positives.
func (c Confusion) FNR() float64 {
	if c.FN+c.TP == 0 {
		return 0
	}
	return float64(c.FN) / float64(c.FN+c.TP)
}

// Precision is TP / (TP + FP); 1 when nothing was predicted.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP / (TP + FN); 1 when there were no positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Mean returns the arithmetic mean; 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LogHistogram buckets positive values by powers of base (e.g. flow sizes
// by decade for Fig. 6).
type LogHistogram struct {
	base    float64
	lnBase  float64
	counts  map[int]int
	samples int
}

// NewLogHistogram returns a histogram with the given base (>1).
func NewLogHistogram(base float64) *LogHistogram {
	return &LogHistogram{
		base:   base,
		lnBase: math.Log(base),
		counts: make(map[int]int),
	}
}

// Add records one value; non-positive values land in bucket 0 with lower
// bound 1.
func (h *LogHistogram) Add(v float64) {
	b := 0
	if v >= h.base {
		b = int(math.Log(v) / h.lnBase)
	}
	h.counts[b]++
	h.samples++
}

// Bucket is one histogram row: [Lo, Hi) value range and its count.
type Bucket struct {
	Lo, Hi float64
	Count  int
}

// Buckets returns the non-empty buckets in ascending order.
func (h *LogHistogram) Buckets() []Bucket {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]Bucket, 0, len(keys))
	for _, k := range keys {
		out = append(out, Bucket{
			Lo:    math.Pow(h.base, float64(k)),
			Hi:    math.Pow(h.base, float64(k+1)),
			Count: h.counts[k],
		})
	}
	return out
}

// Samples returns the total number of values added.
func (h *LogHistogram) Samples() int { return h.samples }

// TimeSeries accumulates values into fixed-width time buckets (for Fig. 7's
// ips/pps timeline and Fig. 12's traffic/CPU series).
type TimeSeries struct {
	width int64
	start int64
	sums  []float64
	ns    []int
}

// NewTimeSeries returns a series with buckets of width nanoseconds starting
// at start.
func NewTimeSeries(start, width int64) *TimeSeries {
	return &TimeSeries{width: width, start: start}
}

// Add records value v at timestamp ts; out-of-range early timestamps clamp
// to bucket 0.
func (s *TimeSeries) Add(ts int64, v float64) {
	idx := 0
	if ts > s.start {
		idx = int((ts - s.start) / s.width)
	}
	for idx >= len(s.sums) {
		s.sums = append(s.sums, 0)
		s.ns = append(s.ns, 0)
	}
	s.sums[idx] += v
	s.ns[idx]++
}

// Len returns the number of buckets touched so far.
func (s *TimeSeries) Len() int { return len(s.sums) }

// Sum returns the value total in bucket i.
func (s *TimeSeries) Sum(i int) float64 {
	if i < 0 || i >= len(s.sums) {
		return 0
	}
	return s.sums[i]
}

// Count returns the number of samples in bucket i.
func (s *TimeSeries) Count(i int) int {
	if i < 0 || i >= len(s.ns) {
		return 0
	}
	return s.ns[i]
}

// Rate returns bucket i's sum divided by the bucket width in seconds —
// a per-second rate series.
func (s *TimeSeries) Rate(i int) float64 {
	return s.Sum(i) / (float64(s.width) / 1e9)
}

// BucketWidth returns the bucket width in nanoseconds.
func (s *TimeSeries) BucketWidth() int64 { return s.width }
