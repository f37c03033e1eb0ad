package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for
// an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// best is the sample the host disturbed least: the smallest when
// lower is better, the largest when higher is; 0 for an empty slice.
func best(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if better == "higher" {
		return s[len(s)-1]
	}
	return s[0]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because
// that is the rule the acceptance check of this benchmark is written
// against. Fewer than two values have no spread: both quartiles are
// the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4, 1-based; like Python, the index is
		// clamped into the data and the weight is taken after the
		// clamp, so tiny samples extrapolate.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqrShare is the distance between the quartiles as a share of the
// median — the spread figure every bound in BENCHMARK.json is compared
// with.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// quantile is the nearest-rank quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailPercentile names the highest of the percentiles 50, 90, 95, 99,
// 99.9 that still has at least ten samples beyond it in a sample of n —
// the reporting rule of the choosing-metrics guide. 0 means not even
// the median is supported (n < 20).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, perMille := range []int{500, 900, 950, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 10
		}
	}
	return best
}
