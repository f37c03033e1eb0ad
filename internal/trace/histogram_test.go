package trace

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 7, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	if got := h.Sum(); got != 113.5 {
		t.Fatalf("Sum = %v, want 113.5", got)
	}
	s := h.Snapshot()
	wantCounts := []uint64{1, 2, 1, 1, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Fatalf("min/max = %v/%v, want 0.5/100", s.Min, s.Max)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	// 100 observations: 50 in (0,1], 40 in (1,2], 10 in (4,8].
	for i := 0; i < 50; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 40; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := h.Quantile(0.9); got != 2 {
		t.Errorf("p90 = %v, want 2", got)
	}
	if got := h.Quantile(0.99); got != 8 {
		t.Errorf("p99 = %v, want 8", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("p0 = %v, want 1 (first non-empty bucket bound)", got)
	}
}

func TestHistogramOverflowQuantileUsesMax(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(50)
	h.Observe(70)
	if got := h.Quantile(0.99); got != 70 {
		t.Fatalf("overflow p99 = %v, want observed max 70", got)
	}
}

func TestHistogramEmptyAndNaN(t *testing.T) {
	h := NewHistogram(1, 2)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Fatal("NaN observation must be ignored")
	}
}

func TestExponentialBounds(t *testing.T) {
	b := ExponentialBounds(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExponentialBounds(1, 2, 10)...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g + 1))
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
}
