package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Histogram is a concurrency-safe fixed-bucket histogram. It is the
// aggregation primitive the serving layer builds its request-latency
// and batch-size metrics on: unlike a Timeline, which keeps every
// event, a Histogram holds O(buckets) state no matter how long the
// process runs, so it is safe inside a server that handles millions
// of observations.
//
// Bucket i counts observations v with bounds[i-1] < v <= bounds[i];
// one implicit overflow bucket counts v > bounds[len-1].
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1; last is overflow
	sum    float64
	count  uint64
	min    float64
	max    float64
}

// NewHistogram returns a histogram over the given ascending bucket
// upper bounds. It panics if bounds is empty or not strictly
// ascending, since a malformed histogram would silently misreport.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("trace: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("trace: histogram bounds not ascending at %d: %v <= %v",
				i, bounds[i], bounds[i-1]))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// ExponentialBounds returns n ascending bounds starting at start and
// multiplying by factor — the usual shape for latency buckets.
func ExponentialBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("trace: ExponentialBounds wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value. NaN is ignored (a poisoned observation
// must not poison the aggregate).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns an upper-bound estimate of the q-quantile
// (0 <= q <= 1): the upper bound of the bucket holding the q-th
// observation. Observations beyond the last bound report the observed
// maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// Snapshot is a point-in-time copy of a histogram for serialization.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1, last is overflow
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Snapshot returns a consistent copy of the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
	return s
}
