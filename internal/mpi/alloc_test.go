package mpi

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// maxStrayAllocsPerOp is the guards' threshold. The counter is the
// process-wide malloc count, so with more than one P it also sees what
// the runtime allocates while four rank goroutines block and wake on
// channels (sudogs, timers, a test-framework goroutine): 0 at
// GOMAXPROCS=1, up to 0.08 objects/op measured at 2 and 4, and
// ROADMAP records 0.1–0.3 for the segmented ring. The defect the
// guards exist to catch — a make() per operation in any rank — reads
// at least 1.0, so 0.5 separates the two at every core count.
const maxStrayAllocsPerOp = 0.5

// measureAllocsPerOp runs op on every rank of a fresh world — warm
// iterations first, then rounds measured iterations — and returns the
// process-wide heap allocations per measured operation. All ranks run
// the same allocation-free code, so the global malloc counter isolates
// the collective's own allocations; GC is disabled during the window
// to keep the scratch rings and runtime quiet.
func measureAllocsPerOp(t *testing.T, size, warm, rounds int, op func(c *Comm) error) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := NewWorld(size)
	var before, after runtime.MemStats
	err := w.Run(func(c *Comm) error {
		for i := 0; i < warm; i++ {
			if err := op(c); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for i := 0; i < rounds; i++ {
			if err := op(c); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(rounds)
}

// TestHotCollectivesAllocationFree is the allocs-per-op guard for the
// collectives on the training hot path, mirroring the layer-step guard
// in internal/nn/alloc_test.go: once the link scratch rings are warm,
// Barrier, Broadcast, AllreduceSum/Mean, and AllgatherInto must not
// allocate.
func TestHotCollectivesAllocationFree(t *testing.T) {
	const size = 4
	// Per-rank buffers: collectives mutate the caller's slice, so
	// sharing one across ranks would race.
	bufs := make([][]float64, size)
	gathered := make([][]float64, size)
	mine := make([][]float64, size)
	for r := 0; r < size; r++ {
		bufs[r] = make([]float64, 4096)
		gathered[r] = make([]float64, size*512)
		mine[r] = make([]float64, 512)
	}
	cases := []struct {
		name string
		op   func(c *Comm) error
	}{
		{"Barrier", func(c *Comm) error { return c.Barrier() }},
		{"Broadcast", func(c *Comm) error { return c.Broadcast(0, bufs[c.Rank()]) }},
		{"AllreduceSum", func(c *Comm) error { return c.AllreduceSum(bufs[c.Rank()]) }},
		{"AllreduceMean", func(c *Comm) error { return c.AllreduceMean(bufs[c.Rank()]) }},
		{"AllgatherInto", func(c *Comm) error { return c.AllgatherInto(mine[c.Rank()], gathered[c.Rank()]) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm past the scratch ring length: a collective sending one
			// message per link per op touches one slab per op, so fewer
			// than scratchSlabs warm ops would leave cold slabs to be
			// allocated inside the measured window.
			allocs := measureAllocsPerOp(t, size, scratchSlabs+2, 100, tc.op)
			if allocs >= maxStrayAllocsPerOp {
				t.Fatalf("%s allocated %.3f objects/op across %d ranks, want < %v", tc.name, allocs, size, maxStrayAllocsPerOp)
			}
		})
	}
}

// TestLargeAllreduceAllocationFree extends the guard past the
// segmentation threshold: a pipelined (multi-segment) ring must reuse
// its scratch slabs exactly like the single-segment path.
func TestLargeAllreduceAllocationFree(t *testing.T) {
	const size = 4
	bufs := make([][]float64, size)
	for r := 0; r < size; r++ {
		bufs[r] = make([]float64, 3*defaultSegmentElems+17)
	}
	allocs := measureAllocsPerOp(t, size, 3, 20, func(c *Comm) error {
		return c.AllreduceSum(bufs[c.Rank()])
	})
	if allocs >= maxStrayAllocsPerOp {
		t.Fatalf("segmented AllreduceSum allocated %.3f objects/op, want < %v", allocs, maxStrayAllocsPerOp)
	}
}

// TestSegmentedAllreduceMatchesSerial checks the pipelined ring against
// the serial sum on lengths straddling the segmentation threshold,
// including ragged sizes that split unevenly across both segments and
// chunks.
func TestSegmentedAllreduceMatchesSerial(t *testing.T) {
	for _, size := range []int{2, 3, 5} {
		for _, l := range []int{defaultSegmentElems - 1, defaultSegmentElems + 1, 2*defaultSegmentElems + 13, 5*defaultSegmentElems + 7} {
			w := NewWorld(size)
			// Integer contributions keep float64 sums exact under any
			// association, so the check is order-independent.
			rng := rand.New(rand.NewSource(int64(size*1000 + l)))
			inputs := make([][]float64, size)
			want := make([]float64, l)
			for r := 0; r < size; r++ {
				inputs[r] = make([]float64, l)
				for i := range inputs[r] {
					inputs[r][i] = float64(rng.Intn(200) - 100)
					want[i] += inputs[r][i]
				}
			}
			err := w.Run(func(c *Comm) error {
				data := make([]float64, l)
				copy(data, inputs[c.Rank()])
				if err := c.AllreduceSum(data); err != nil {
					return err
				}
				for i, v := range data {
					if v != want[i] {
						t.Errorf("size %d len %d rank %d: elem %d = %v, want %v", size, l, c.Rank(), i, v, want[i])
						break
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSetSegmentElems: a smaller segment size forces the pipelined
// path (more messages) without changing results.
func TestSetSegmentElems(t *testing.T) {
	const size, l = 3, 1024
	run := func(segElems int) (result []float64, msgs int64) {
		w := NewWorld(size)
		w.SetSegmentElems(segElems)
		err := w.Run(func(c *Comm) error {
			data := make([]float64, l)
			for i := range data {
				data[i] = float64(c.Rank()*l + i)
			}
			if err := c.AllreduceSum(data); err != nil {
				return err
			}
			if c.Rank() == 0 {
				result = data
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return result, w.MessagesSent()
	}
	plain, plainMsgs := run(0) // default: l is far below the threshold
	seg, segMsgs := run(256)   // 4 segments
	for i := range plain {
		if plain[i] != seg[i] {
			t.Fatalf("segmented result differs at %d: %v vs %v", i, seg[i], plain[i])
		}
	}
	if segMsgs != 4*plainMsgs {
		t.Fatalf("4-segment ring sent %d messages, want 4× the plain ring's %d", segMsgs, plainMsgs)
	}
}

// TestAllgatherIntoLayout checks the flat variant's rank-major layout
// and that it matches the slice-of-slices API.
func TestAllgatherIntoLayout(t *testing.T) {
	const size, l = 4, 5
	w := NewWorld(size)
	err := w.Run(func(c *Comm) error {
		mine := make([]float64, l)
		for i := range mine {
			mine[i] = float64(c.Rank()*100 + i)
		}
		out := make([]float64, size*l)
		if err := c.AllgatherInto(mine, out); err != nil {
			return err
		}
		for r := 0; r < size; r++ {
			for i := 0; i < l; i++ {
				if got, want := out[r*l+i], float64(r*100+i); got != want {
					t.Errorf("rank %d: out[%d][%d] = %v, want %v", c.Rank(), r, i, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
