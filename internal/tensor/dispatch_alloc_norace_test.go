//go:build !race

package tensor

import (
	"math/rand"
	"testing"
)

// TestParallelDispatchAllocs fixes the price of fanning a kernel out:
// parallelRows heap-allocates the row closure (it is sent to a worker)
// and its WaitGroup, and nothing else, however many chunks it cuts.
// The serial guards (below, internal/nn) say "0"; this says
// "+2 per dispatched kernel, and no more" so the cost cannot grow
// unnoticed before dispatch is made allocation-free.
//
// Excluded from -race builds: the race-mode sync.Pool drops a sampled
// fraction of Puts, so the workers' pack buffers reallocate at random
// (the same reason as nn's f32_alloc_norace_test.go).
func TestParallelDispatchAllocs(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	rng := rand.New(rand.NewSource(24))
	a := RandNormal32(rng, 64, 300, 1)
	b := RandNormal32(rng, 300, 80, 1)
	dst := New32(64, 80)
	if serialRows(a.Rows, a.Rows*a.Cols*b.Cols) {
		t.Fatal("shape too small to dispatch; the guard would measure the serial path")
	}
	MatMulInto32(dst, a, b) // warm pools
	if allocs := testing.AllocsPerRun(20, func() { MatMulInto32(dst, a, b) }); allocs > 2 {
		t.Fatalf("dispatched MatMulInto32 allocates %.1f times per run, want <= 2", allocs)
	}
}

// TestKernels32WarmAllocFree: a warmed packed matmul must not allocate
// (the packing scratch is pooled). The claim is about the serial path,
// so the test pins the pool to one worker; TestParallelDispatchAllocs
// bounds what a dispatched kernel costs on top. It sits in this file
// for the reason given there: under -race a sampled Put is dropped and
// the next Get rebuilds the pack buffer (3 objects), which failed this
// guard on about four runs in ten.
func TestKernels32WarmAllocFree(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	rng := rand.New(rand.NewSource(24))
	a := RandNormal32(rng, 64, 300, 1)
	b := RandNormal32(rng, 300, 80, 1)
	dst := New32(64, 80)
	MatMulInto32(dst, a, b) // warm pools
	allocs := testing.AllocsPerRun(20, func() { MatMulInto32(dst, a, b) })
	if allocs > 0 {
		t.Fatalf("warmed MatMulInto32 allocates %.1f times per run", allocs)
	}
}
