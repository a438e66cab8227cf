package stats

import (
	"math"
	"testing"
)

func TestRelErr(t *testing.T) {
	tests := []struct {
		est, truth, want float64
	}{
		{100, 100, 0},
		{110, 100, 0.1},
		{90, 100, 0.1},
		{0, 0, 0},
	}
	for _, tt := range tests {
		if got := RelErr(tt.est, tt.truth); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("RelErr(%v,%v) = %v, want %v", tt.est, tt.truth, got, tt.want)
		}
	}
	if !math.IsInf(RelErr(5, 0), 1) {
		t.Error("RelErr with zero truth and nonzero estimate must be +Inf")
	}
}

func TestMeanRelErr(t *testing.T) {
	got := MeanRelErr([]float64{110, 90, 100}, []float64{100, 100, 100})
	if math.Abs(got-0.2/3) > 1e-12 {
		t.Errorf("MeanRelErr = %v, want %v", got, 0.2/3)
	}
	if MeanRelErr(nil, nil) != 0 {
		t.Error("empty input must be 0")
	}
	// Zero-truth pairs skipped.
	got = MeanRelErr([]float64{5, 110}, []float64{0, 100})
	if math.Abs(got-0.1) > 1e-12 {
		t.Errorf("MeanRelErr skipping zero truth = %v, want 0.1", got)
	}
}

func TestRMSRelErr(t *testing.T) {
	got := RMSRelErr([]float64{110, 90}, []float64{100, 100})
	if math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RMSRelErr = %v, want 0.1", got)
	}
	if RMSRelErr(nil, nil) != 0 {
		t.Error("empty input must be 0")
	}
	// RMS >= mean (Jensen).
	est := []float64{150, 100, 100}
	truth := []float64{100, 100, 100}
	if RMSRelErr(est, truth) < MeanRelErr(est, truth) {
		t.Error("RMS must dominate the mean")
	}
}

func TestRecall(t *testing.T) {
	if got := Recall([]int{1, 2, 3}, []int{2, 3, 4}); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Recall = %v, want 2/3", got)
	}
	if Recall([]int{}, []int{}) != 1 {
		t.Error("empty truth recall must be 1")
	}
	if Recall([]int{}, []int{1}) != 0 {
		t.Error("no predictions recall must be 0")
	}
	if Recall([]string{"a", "b"}, []string{"a", "b"}) != 1 {
		t.Error("perfect recall must be 1")
	}
}

func TestClassifyAndRates(t *testing.T) {
	c := Classify([]int{1, 2, 5}, []int{1, 2, 3}, 100)
	if c.TP != 2 || c.FP != 1 || c.FN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.TN != 96 {
		t.Errorf("TN = %d, want 96", c.TN)
	}
	if math.Abs(c.FPR()-1.0/97) > 1e-12 {
		t.Errorf("FPR = %v", c.FPR())
	}
	if math.Abs(c.FNR()-1.0/3) > 1e-12 {
		t.Errorf("FNR = %v", c.FNR())
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-12 {
		t.Errorf("Precision = %v", c.Precision())
	}
	if math.Abs(c.Recall()-2.0/3) > 1e-12 {
		t.Errorf("Recall = %v", c.Recall())
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	var c Confusion
	if c.FPR() != 0 || c.FNR() != 0 || c.Precision() != 1 || c.Recall() != 1 {
		t.Error("empty confusion rates wrong")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(10)
	for _, v := range []float64{1, 5, 9, 10, 99, 100, 5000, 0, -3} {
		h.Add(v)
	}
	if h.Samples() != 9 {
		t.Errorf("samples = %d, want 9", h.Samples())
	}
	buckets := h.Buckets()
	byLo := map[float64]int{}
	for _, b := range buckets {
		byLo[b.Lo] = b.Count
		if b.Hi != b.Lo*10 {
			t.Errorf("bucket [%v,%v) not a decade", b.Lo, b.Hi)
		}
	}
	if byLo[1] != 5 { // 1,5,9 plus clamped 0,-3
		t.Errorf("bucket [1,10) count = %d, want 5", byLo[1])
	}
	if byLo[10] != 2 || byLo[100] != 1 || byLo[1000] != 1 {
		t.Errorf("bucket counts wrong: %v", byLo)
	}
	// Ascending order.
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Lo <= buckets[i-1].Lo {
			t.Error("buckets not ascending")
		}
	}
}

func TestTimeSeries(t *testing.T) {
	s := NewTimeSeries(0, 1e9) // 1-second buckets
	s.Add(5e8, 10)
	s.Add(9e8, 20)
	s.Add(15e8, 5)
	s.Add(-100, 1) // clamps to bucket 0

	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.Sum(0) != 31 || s.Count(0) != 3 {
		t.Errorf("bucket 0 = %v/%d, want 31/3", s.Sum(0), s.Count(0))
	}
	if s.Sum(1) != 5 || s.Count(1) != 1 {
		t.Errorf("bucket 1 = %v/%d, want 5/1", s.Sum(1), s.Count(1))
	}
	if s.Rate(1) != 5 {
		t.Errorf("Rate(1) = %v, want 5/s", s.Rate(1))
	}
	if s.Sum(99) != 0 || s.Count(-1) != 0 {
		t.Error("out-of-range buckets must read 0")
	}
	if s.BucketWidth() != 1e9 {
		t.Error("BucketWidth wrong")
	}
}
