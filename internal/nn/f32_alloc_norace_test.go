//go:build !race

package nn

import (
	"math/rand"
	"testing"

	"candle/internal/tensor"
)

// TestF32DenseStepAllocationFree is the alloc guard for the warmed
// fused f32 Dense step: demotion buffers, f32 shadows, pack scratch,
// and the promoted outputs must all come from reusable storage.
//
// Excluded from -race builds: the race-mode sync.Pool drops a sampled
// fraction of Puts, so the pooled pack buffers reallocate
// nondeterministically and the strict count below cannot hold there.
// The race target still runs the fused step itself through the f32
// correctness tests in f32_test.go.
func TestF32DenseStepAllocationFree(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	rng := rand.New(rand.NewSource(19))
	d := NewDense(64)
	d.setDType(tensor.F32)
	d.fuse = "relu"
	if _, err := d.Build(rng, 128); err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(rng, 32, 128, 1)
	dout := tensor.RandNormal(rng, 32, 64, 1)
	step := func() {
		d.Forward(x, true)
		d.Backward(dout)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs > 2 {
		t.Fatalf("warmed fused f32 Dense step did %v allocations, want <= 2", allocs)
	}
}

// TestLSTMStepAllocations pins the warmed LSTM forward+backward, in
// both precisions, to the allocation counts measured when the two
// paths were separate functions (commit dd66b27): the step caches, the
// arena scratch behind every weight gradient and the f32 shadows are
// all reused. It sits in this file for the same sync.Pool reason.
func TestLSTMStepAllocations(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	for _, tc := range []struct {
		dtype tensor.DType
		max   float64
	}{
		{tensor.F64, 0},
		{tensor.F32, 0},
	} {
		rng := rand.New(rand.NewSource(23))
		l := NewLSTM(16, 8)
		l.setDType(tc.dtype)
		if _, err := l.Build(rng, 6*8); err != nil { // 6 steps × 8 features
			t.Fatal(err)
		}
		x := tensor.RandNormal(rng, 32, 48, 1)
		dout := tensor.RandNormal(rng, 32, 16, 1)
		step := func() {
			l.Forward(x, true)
			l.Backward(dout)
		}
		for i := 0; i < 3; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(20, step); allocs > tc.max {
			t.Errorf("warmed %s LSTM step did %v allocations, want <= %v", tc.dtype, allocs, tc.max)
		}
	}
}

// TestOptimizerStepDispatchAllocs bounds a dispatched Step at the price
// tensor.TestParallelDispatchAllocs fixes for every dispatched kernel:
// the range closure and its WaitGroup, once per parameter large enough
// to fan out, and nothing for the small ones.
func TestOptimizerStepDispatchAllocs(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(4))
	if tensor.SerialRange(70000) {
		t.Fatal("length too small to dispatch; the guard would measure the serial path")
	}
	for _, tc := range updateCases {
		opt, params := tc.fresh(), randParams(14, 70000, 9, 70000)
		rng := rand.New(rand.NewSource(15))
		randStep(opt, params, rng)
		const dispatched = 2 // of the three parameters
		if allocs := testing.AllocsPerRun(20, func() { opt.Step(params) }); allocs > 2*dispatched {
			t.Errorf("dispatched %s step did %v allocations, want <= %d", tc.name, allocs, 2*dispatched)
		}
	}
}
