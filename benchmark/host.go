package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The host this benchmark was sized on does not run at one speed. Its
// two processors share execution units with other tenants' work, and a
// fixed piece of arithmetic takes 3.5-4 ms when they are idle and up to
// 7.5 ms when they are not; the state changes within seconds and drifts
// over minutes, and every end-to-end metric of every workload follows it
// (README, "The host"). No statistic of a run's own samples removes a
// drift that lasts longer than the run. What does is a control: the
// run times the same fixed job — the host reference — before and after
// every sample, and scales what it reports to the speed the reference
// shows.

// referenceCleanMs is what hostReference read on the quietest stretches
// of the host the benchmark was sized on. It only anchors the scale, so
// that a metric reads in its own unit roughly as on such a stretch; any
// other constant would move every run's figures by the same factor.
const referenceCleanMs = 4.0

// hostExponent is how much of the reference's slow-down the workloads
// share. The reference is pure arithmetic in the first-level cache, the
// kind of code a busy sibling processor hurts most; when it slows by a
// factor k, the workloads' times grow by k to the 0.4-0.63 (fitted over
// four workloads while the host drifted by 75 %; README has the fits).
const hostExponent = 0.5

// refSink keeps the compiler from discarding refArithmetic's work.
var refSink float64

// refArithmetic is a fixed piece of floating-point work that calls
// nothing in the program under test, so no change to the program can
// move it.
func refArithmetic() float64 {
	const n = 48
	var a, b, c [n * n]float64
	for i := range a {
		a[i] = float64(i%7) * 0.5
		b[i] = float64(i%5) * 0.25
	}
	for r := 0; r < 40; r++ {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
	}
	return c[5]
}

// hostReference runs refArithmetic on every processor at once and
// returns the milliseconds until the last one finished.
func hostReference() float64 {
	var wg sync.WaitGroup
	out := make([]float64, runtime.GOMAXPROCS(0))
	t0 := time.Now()
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = refArithmetic()
		}(g)
	}
	wg.Wait()
	ms := time.Since(t0).Seconds() * 1e3
	refSink = out[0]
	return ms
}

// around runs f, one timed sample, between two readings of the host
// reference.
func (c *runCtx) around(f func()) {
	c.res.HostReadingsMs = append(c.res.HostReadingsMs, hostReference())
	f()
	c.res.HostReadingsMs = append(c.res.HostReadingsMs, hostReference())
}

// hostFactor is what a time measured in this run is multiplied by (and
// a rate divided by) to read as on an undisturbed host. The run's
// figure for the reference is the lower quartile of its readings: like
// the best sample of a metric, it describes the quieter part of the run,
// but it does not hang on one reading of a few milliseconds.
func hostFactor(readingsMs []float64) (referenceMs, factor float64) {
	if len(readingsMs) == 0 {
		return referenceCleanMs, 1
	}
	referenceMs, _ = quartiles(readingsMs)
	return referenceMs, math.Pow(referenceCleanMs/referenceMs, hostExponent)
}
