package serve

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"candle/internal/candle"
	"candle/internal/checkpoint"
	"candle/internal/nn"
	"candle/internal/trace"
)

// The serving benchmark asks the paper's fusion-buffer question of the
// inference path: does coalescing many small units of work into one
// kernel call pay for the coordination it needs? On this single-core
// container the forward itself gains nothing from batching (there is
// no parallelism to exploit), so the entire batched win is per-row
// pipeline overhead — batcher wakeup, replica checkout, batch
// goroutine, metric updates, and the submitter's own wakeup — paid
// once per batch instead of once per row. That is exactly the regime
// the paper's CycleTime / FusionBytes tuning targets for collectives.
//
// The load generator is a single goroutine multiplexing `clients`
// outstanding requests over the async Submit API (the shape of a
// queue consumer or a connection-multiplexing proxy). In batched mode
// its completions arrive clustered — one wake delivers a whole
// batch — so the consumer-side scheduling cost amortizes too, which
// is precisely the benefit batching buys a multiplexed caller.

const (
	benchFeatureDiv = 4000 // NT3 features/4000 = 15-wide rows, ~1µs/row forward
	benchClients    = 64   // outstanding requests in the closed loop
	benchMaxBatch   = 32   // batched mode; < clients keeps full batches queued
	benchRounds     = 3    // measured windows per mode; best one is reported
)

// benchServer stands up a Server on an NT3-shaped model (conv-pool ×2,
// dense layers, softmax) scaled so one row's forward costs ~1µs —
// small enough that per-request overhead, not compute, dominates the
// unbatched path, which is the workload micro-batching exists for.
func benchServer(tb testing.TB, maxBatch int) *Server {
	return benchServerDiv(tb, "NT3", benchFeatureDiv, maxBatch, "")
}

func benchServerDiv(tb testing.TB, bench string, featureDiv, maxBatch int, dtype string) *Server {
	tb.Helper()
	b, err := candle.Scaled(bench, 20, featureDiv)
	if err != nil {
		tb.Fatal(err)
	}
	dim := b.Spec.Features
	ref := b.Build(b.Spec)
	if err := ref.Compile(dim, b.Loss, nn.NewSGD(0.01), 42); err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	snap := &checkpoint.Snapshot{
		Benchmark: bench,
		Epoch:     1,
		Step:      100,
		Weights:   ref.WeightsVector(),
	}
	if err := checkpoint.Save(checkpoint.FileFor(dir, bench, 1), snap); err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{
		Benchmark:   bench,
		Dir:         dir,
		Factory:     func() *nn.Sequential { return b.Build(b.Spec) },
		Loss:        b.Loss,
		InputDim:    dim,
		DType:       dtype,
		MaxBatch:    maxBatch,
		MaxWait:     2 * time.Millisecond,
		Replicas:    2,
		QueueDepth:  1024,
		ReloadEvery: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

type serveRun struct {
	throughput float64 // requests/second over the measured window
	p50, p99   float64 // end-to-end latency, seconds (bucket upper bound)
	mean       float64
	meanBatch  float64 // rows per Forward actually achieved
}

// measureServeRun drives the full serving pipeline (admission,
// batcher, replica pool) closed-loop: one generator goroutine keeps
// `clients` requests outstanding through Submit and resubmits each as
// it completes, for `total` measured requests. After warmup it runs
// benchRounds independent windows and reports the best, which rejects
// the occasional noisy-neighbor stall this shared container suffers
// (both modes get the same treatment). Latency and batch-size stats
// are taken per round: latency from admission to the generator's
// receipt into a fresh histogram (quantiles are bucket upper-bound
// estimates, the usual histogram convention), batch size from the
// server's histogram's count and sum around the round.
func measureServeRun(tb testing.TB, maxBatch, clients, total int) serveRun {
	tb.Helper()
	return measureServeRunOn(tb, benchServer(tb, maxBatch), clients, total)
}

// measureServeRunOn is measureServeRun against a caller-built server
// (it takes ownership and shuts the server down when done).
func measureServeRunOn(tb testing.TB, s *Server, clients, total int) serveRun {
	tb.Helper()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	dim := s.cfg.InputDim

	rng := rand.New(rand.NewSource(7))
	reqs := make([]*Request, clients)
	for i := range reqs {
		f := make([]float64, dim)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		reqs[i] = &Request{Features: f}
	}
	done := make(chan *Request, clients)
	var lat *trace.Histogram // this round's end-to-end latencies
	run := func(n int) {
		submitted := 0
		for ; submitted < clients && submitted < n; submitted++ {
			if err := s.Submit(reqs[submitted], done); err != nil {
				tb.Fatal(err)
			}
		}
		for completed := 0; completed < n; completed++ {
			req := <-done
			if req.Err != nil {
				tb.Fatal(req.Err)
			}
			if lat != nil {
				lat.Observe(time.Since(req.enqueued).Seconds())
			}
			if submitted < n {
				if err := s.Submit(req, done); err != nil {
					tb.Fatal(err)
				}
				submitted++
			}
		}
	}

	run(total / 10) // warmup: buffers allocated, scheduler settled
	var best serveRun
	for round := 0; round < benchRounds; round++ {
		lat = trace.NewHistogram(trace.ExponentialBounds(20e-6, 1.5, 28)...)
		preCount, preSum := s.metrics.batchSize.Count(), s.metrics.batchSize.Sum()
		start := time.Now()
		run(total)
		wall := time.Since(start).Seconds()
		r := serveRun{
			throughput: float64(total) / wall,
			p50:        lat.Quantile(0.50),
			p99:        lat.Quantile(0.99),
			mean:       lat.Mean(),
			meanBatch:  (s.metrics.batchSize.Sum() - preSum) / float64(s.metrics.batchSize.Count()-preCount),
		}
		if r.throughput > best.throughput {
			best = r
		}
	}
	return best
}

// BenchmarkServePredict compares the two modes under `go test -bench`:
//
//	go test -bench ServePredict -run '^$' ./internal/serve
func BenchmarkServePredict(b *testing.B) {
	for _, mode := range []struct {
		name     string
		maxBatch int
	}{{"unbatched", 1}, {"batched32", benchMaxBatch}} {
		b.Run(mode.name, func(b *testing.B) {
			r := measureServeRun(b, mode.maxBatch, benchClients, b.N)
			b.ReportMetric(r.throughput, "req/s")
			b.ReportMetric(r.p99*1e6, "p99-us")
		})
	}
}

// BenchmarkServeDType contrasts end-to-end batched serving at f64 vs
// f32 replicas on a compute-heavy P1B1 autoencoder (features/15 ≈
// 4000-wide rows through ~1000-unit dense layers) — an all-Dense model
// where the fused f32 forward, not dispatch overhead, dominates:
//
//	go test -bench ServeDType -run '^$' ./internal/serve
func BenchmarkServeDType(b *testing.B) {
	for _, dt := range []string{"f64", "f32"} {
		b.Run(dt, func(b *testing.B) {
			s := benchServerDiv(b, "P1B1", 15, benchMaxBatch, dt)
			r := measureServeRunOn(b, s, benchClients, b.N)
			b.ReportMetric(r.throughput, "req/s")
			b.ReportMetric(r.p99*1e6, "p99-us")
		})
	}
}
