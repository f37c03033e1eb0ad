package serve

import (
	"sync/atomic"

	"candle/internal/trace"
)

// Metrics is the server's bounded-memory metric registry, built on
// the trace package's aggregation primitives (Histogram, Profiler)
// rather than an event log: a long-lived server must not grow state
// per request.
type Metrics struct {
	requests       atomic.Uint64 // admitted
	rejected       atomic.Uint64 // bounced with 429
	errored        atomic.Uint64 // admitted but failed
	reloads        atomic.Uint64
	reloadFailures atomic.Uint64

	// latency is end-to-end seconds from admission to response.
	latency *trace.Histogram
	// batchSize distributes the coalesced rows per Forward.
	batchSize *trace.Histogram
	// phases accumulates queue_wait and forward seconds,
	// cProfile-style.
	phases *trace.Profiler
}

func newMetrics() *Metrics {
	return &Metrics{
		// 20µs .. ~1.1s in ×1.5 steps: fine enough to resolve the
		// tens-of-microseconds in-process path the benchmark measures,
		// wide enough for a pathological stall.
		latency: trace.NewHistogram(trace.ExponentialBounds(20e-6, 1.5, 28)...),
		// 1 .. 1024 in ×2 steps covers any plausible MaxBatch.
		batchSize: trace.NewHistogram(trace.ExponentialBounds(1, 2, 11)...),
		phases:    trace.NewProfiler(),
	}
}

// Requests returns the number of admitted requests.
func (m *Metrics) Requests() uint64 { return m.requests.Load() }

// Rejected returns the number of requests bounced by admission
// control.
func (m *Metrics) Rejected() uint64 { return m.rejected.Load() }

// Latency returns the end-to-end latency histogram (seconds).
func (m *Metrics) Latency() *trace.Histogram { return m.latency }

// BatchSize returns the rows-per-forward histogram.
func (m *Metrics) BatchSize() *trace.Histogram { return m.batchSize }

// MeanBatch returns the average rows per Forward so far (0 before any
// batch ran).
func (m *Metrics) MeanBatch() float64 { return m.batchSize.Mean() }

// snapshot is the JSON shape of /metrics.
type metricsSnapshot struct {
	Requests       uint64 `json:"requests"`
	Rejected       uint64 `json:"rejected"`
	Errored        uint64 `json:"errored"`
	Reloads        uint64 `json:"reloads"`
	ReloadFailures uint64 `json:"reload_failures"`
	QueueDepth     int    `json:"queue_depth"`
	QueueCap       int    `json:"queue_cap"`

	MaxBatch       int     `json:"max_batch"`
	MaxWaitSeconds float64 `json:"max_wait_seconds"`

	LatencySeconds histogramJSON     `json:"latency_seconds"`
	BatchSize      histogramJSON     `json:"batch_size"`
	Phases         []trace.PhaseStat `json:"phases"`
}

type histogramJSON struct {
	trace.HistogramSnapshot
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

func histJSON(h *trace.Histogram) histogramJSON {
	return histogramJSON{
		HistogramSnapshot: h.Snapshot(),
		Mean:              h.Mean(),
		P50:               h.Quantile(0.50),
		P90:               h.Quantile(0.90),
		P99:               h.Quantile(0.99),
	}
}

func (s *Server) metricsSnapshot() metricsSnapshot {
	m := s.metrics
	return metricsSnapshot{
		Requests:       m.requests.Load(),
		Rejected:       m.rejected.Load(),
		Errored:        m.errored.Load(),
		Reloads:        m.reloads.Load(),
		ReloadFailures: m.reloadFailures.Load(),
		QueueDepth:     len(s.queue),
		QueueCap:       cap(s.queue),
		MaxBatch:       s.cfg.MaxBatch,
		MaxWaitSeconds: s.cfg.MaxWait.Seconds(),
		LatencySeconds: histJSON(m.latency),
		BatchSize:      histJSON(m.batchSize),
		Phases:         m.phases.Stats(),
	}
}
