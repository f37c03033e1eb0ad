package candle

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"candle/internal/tensor"
)

// TestRunBoundsKernelGoroutines runs a 4-rank training and asserts the
// process-wide goroutine count stays bounded: the rank goroutines plus
// the fixed tensor worker budget, never a per-kernel spawn. Before the
// shared pool, every large matmul spawned its own goroutine set, so a
// 4-rank run oversubscribed the node — the effect the paper measures
// as the performance and energy cost of careless intra-op parallelism.
// The pool is sized once, at init: a Run, and two Runs overlapping in
// one process, must leave it exactly as they found it.
func TestRunBoundsKernelGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	workers := tensor.Workers()

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
	if w := tensor.Workers(); w != workers {
		t.Fatalf("a Run resized the kernel pool: %d workers, was %d", w, workers)
	}

	b, dir := prepareSmall(t)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Run(smallCfg(dir)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if w := tensor.Workers(); w != workers {
		t.Fatalf("two overlapped Runs resized the kernel pool: %d workers, was %d", w, workers)
	}
}
