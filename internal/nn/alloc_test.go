package nn

import (
	"math/rand"
	"testing"

	"candle/internal/tensor"
)

// TestDenseStepAllocationFree proves the allocation-free steady state
// the kernel layer is built for: once a Dense layer has run a
// forward+backward at a given batch size (warming its reusable
// buffers and the arena's size classes), further steps at that batch
// size stay at or under 2 allocations. Like the other step guards it
// pins the kernel pool to one worker: the claim is about the serial
// path, and each kernel the pool fans out costs 2 more objects
// (bounded by tensor.TestParallelDispatchAllocs).
func TestDenseStepAllocationFree(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	rng := rand.New(rand.NewSource(7))
	d := NewDense(64)
	if _, err := d.Build(rng, 128); err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(rng, 32, 128, 1)
	dout := tensor.RandNormal(rng, 32, 64, 1)
	step := func() {
		d.Forward(x, true)
		d.Backward(dout)
	}
	// Warm the layer buffers and the arena size classes.
	for i := 0; i < 3; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs > 2 {
		t.Fatalf("warmed Dense forward+backward did %v allocations, want <= 2", allocs)
	}
}

// TestConvStepAllocationsBounded extends the same guard to the Conv1D
// path NT3 trains: im2col patches, matmul, bias, and the backward
// scatter must all reuse their buffers.
func TestConvStepAllocationsBounded(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	rng := rand.New(rand.NewSource(8))
	c := NewConv1DStrided(8, 5, 4, 1, true)
	if _, err := c.Build(rng, 32*4); err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(rng, 16, 32*4, 1)
	out := c.Forward(x, true)
	dout := tensor.RandNormal(rng, out.Rows, out.Cols, 1)
	step := func() {
		c.Forward(x, true)
		c.Backward(dout)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs > 2 {
		t.Fatalf("warmed Conv1D forward+backward did %v allocations, want <= 2", allocs)
	}
}

// TestOptimizerStepAllocationFree: once every parameter has its state,
// a serial Step allocates nothing — the driver builds its range closure
// only when it dispatches — for each optimizer, on parameters above and
// below the dispatch threshold.
func TestOptimizerStepAllocationFree(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	for _, tc := range updateCases {
		opt, params := tc.fresh(), randParams(12, 9, 70000)
		rng := rand.New(rand.NewSource(13))
		randStep(opt, params, rng) // creates the state
		if allocs := testing.AllocsPerRun(20, func() { opt.Step(params) }); allocs > 0 {
			t.Errorf("warmed serial %s step did %v allocations, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkDenseStep measures one forward+backward through a Dense
// layer at the two shapes that dominate the paper's Pilot1 runs: the
// NT3 dense head (batch 20, 1064→128 after the conv stack) and the
// P1B1 encoder (batch 100, 4096-feature slice into a 1024 hidden
// layer).
func BenchmarkDenseStep(b *testing.B) {
	for _, s := range []struct {
		name             string
		batch, in, units int
	}{
		{"NT3dense_20x1064x128", 20, 1064, 128},
		{"P1B1enc_100x4096x1024", 100, 4096, 1024},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			d := NewDense(s.units)
			if _, err := d.Build(rng, s.in); err != nil {
				b.Fatal(err)
			}
			x := tensor.RandNormal(rng, s.batch, s.in, 1)
			dout := tensor.RandNormal(rng, s.batch, s.units, 1)
			d.Forward(x, true)
			d.Backward(dout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Forward(x, true)
				d.Backward(dout)
			}
		})
	}
}

// BenchmarkDenseStep32 is the float32 column of BenchmarkDenseStep:
// the same two Pilot1 shapes through the fused Dense+bias+relu f32
// pass (packed kernels, f64 master weights, promoted gradients).
func BenchmarkDenseStep32(b *testing.B) {
	for _, s := range []struct {
		name             string
		batch, in, units int
	}{
		{"NT3dense_20x1064x128", 20, 1064, 128},
		{"P1B1enc_100x4096x1024", 100, 4096, 1024},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			d := NewDense(s.units)
			d.setDType(tensor.F32)
			d.fuse = "relu"
			if _, err := d.Build(rng, s.in); err != nil {
				b.Fatal(err)
			}
			x := tensor.RandNormal(rng, s.batch, s.in, 1)
			dout := tensor.RandNormal(rng, s.batch, s.units, 1)
			d.Forward(x, true)
			d.Backward(dout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Forward(x, true)
				d.Backward(dout)
			}
		})
	}
}
