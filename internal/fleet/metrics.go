package fleet

import (
	"sync/atomic"

	"candle/internal/trace"
)

// Metrics is the router's bounded-memory registry, on the same trace
// primitives as the replica's (one histogram, a handful of counters —
// nothing grows per request).
type Metrics struct {
	requests       atomic.Uint64 // /predict calls received
	proxied        atomic.Uint64 // answered by a replica (any status)
	failovers      atomic.Uint64 // retries after a failed attempt
	attemptErrors  atomic.Uint64 // individual attempts that failed
	noReplica      atomic.Uint64 // 503: nothing route-eligible
	exhausted      atomic.Uint64 // 502: every attempt failed
	joins          atomic.Uint64
	drains         atomic.Uint64 // members drained by the prober
	recoveries     atomic.Uint64 // members readmitted
	reloads        atomic.Uint64 // committed coordinated rounds
	reloadFailures atomic.Uint64

	// latency is router-observed end-to-end seconds (all failover
	// attempts included).
	latency *trace.Histogram
}

func newMetrics() *Metrics {
	return &Metrics{
		// 50µs .. ~4s in ×1.5 steps: a proxied request pays at least a
		// local TCP round trip on top of the replica's own latency.
		latency: trace.NewHistogram(trace.ExponentialBounds(50e-6, 1.5, 28)...),
	}
}

// Proxied returns how many requests a replica answered.
func (m *Metrics) Proxied() uint64 { return m.proxied.Load() }

// Failovers returns how many attempts were retried on another
// replica.
func (m *Metrics) Failovers() uint64 { return m.failovers.Load() }

// Latency returns the router-observed latency histogram (seconds).
func (m *Metrics) Latency() *trace.Histogram { return m.latency }

type metricsSnapshot struct {
	Requests       uint64 `json:"requests"`
	Proxied        uint64 `json:"proxied"`
	Failovers      uint64 `json:"failovers"`
	AttemptErrors  uint64 `json:"attempt_errors"`
	NoReplica      uint64 `json:"no_replica"`
	Exhausted      uint64 `json:"exhausted"`
	Joins          uint64 `json:"joins"`
	Drains         uint64 `json:"drains"`
	Recoveries     uint64 `json:"recoveries"`
	Reloads        uint64 `json:"reloads"`
	ReloadFailures uint64 `json:"reload_failures"`

	LatencySeconds latencyJSON `json:"latency_seconds"`
}

type latencyJSON struct {
	trace.HistogramSnapshot
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
}

func (m *Metrics) snapshot() metricsSnapshot {
	return metricsSnapshot{
		Requests:       m.requests.Load(),
		Proxied:        m.proxied.Load(),
		Failovers:      m.failovers.Load(),
		AttemptErrors:  m.attemptErrors.Load(),
		NoReplica:      m.noReplica.Load(),
		Exhausted:      m.exhausted.Load(),
		Joins:          m.joins.Load(),
		Drains:         m.drains.Load(),
		Recoveries:     m.recoveries.Load(),
		Reloads:        m.reloads.Load(),
		ReloadFailures: m.reloadFailures.Load(),
		LatencySeconds: latencyJSON{
			HistogramSnapshot: m.latency.Snapshot(),
			Mean:              m.latency.Mean(),
			P50:               m.latency.Quantile(0.50),
			P99:               m.latency.Quantile(0.99),
		},
	}
}
