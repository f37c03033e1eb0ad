package candle

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"candle/internal/tensor"
)

// restoreWorkerBudget is for tests that overlap Runs inside one
// process. Each Run saves and restores tensor's process-global kernel
// budget, and overlapping pairs interleave — A saves n, B saves A's
// n/ranks, A restores n, B restores n/ranks — leaving every later test
// in the package on a shrunken budget; that, not Run, is what failed
// TestRunBoundsKernelGoroutines in full-package runs off one core.
// Real workers are separate processes. Until the pool is a value owned
// by the run (ROADMAP), such tests put the budget back themselves, after
// their subtests finish.
func restoreWorkerBudget(t *testing.T) {
	prev := tensor.Workers()
	t.Cleanup(func() { tensor.SetWorkers(prev) })
}

// TestRunBoundsKernelGoroutines runs a 4-rank training and asserts the
// process-wide goroutine count stays bounded: the rank goroutines plus
// the fixed tensor worker budget, never a per-kernel spawn. Before the
// shared pool, every large matmul spawned its own goroutine set, so a
// 4-rank run oversubscribed the node — the effect the paper measures
// as the performance and energy cost of careless intra-op parallelism.
func TestRunBoundsKernelGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	var peak atomic.Int64
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-done:
				return
			default:
				if g := int64(runtime.NumGoroutine()); g > peak.Load() {
					peak.Store(g)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	const ranks = 4
	res := runSmall(t, ranks, RunConfig{TotalEpochs: 8})
	close(done)
	<-stopped

	if res.Root.Epochs <= 0 {
		t.Fatalf("run did no work: %+v", res.Root)
	}
	// Budget: pre-existing goroutines, the monitor itself, the 4 rank
	// goroutines, the tensor pool (at most GOMAXPROCS-1 workers), and
	// a small slack for runtime/test-framework helpers.
	budget := int64(base + 1 + ranks + runtime.GOMAXPROCS(0) + 4)
	if p := peak.Load(); p > budget {
		t.Fatalf("goroutine peak %d exceeds budget %d (base %d, ranks %d)", p, budget, base, ranks)
	}
	// The run must restore the caller's worker budget on return.
	if w := tensor.Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("worker budget not restored: %d, want %d", w, runtime.GOMAXPROCS(0))
	}
}
