package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the shared, bounded kernel worker pool.
//
// Every parallel kernel in the package splits its row range into
// chunks and offers the chunks to a package-level set of persistent
// worker goroutines; whatever the pool cannot take immediately the
// calling goroutine computes itself. Because the pool is global and
// its size is a hard budget, N concurrent callers (for example the R
// simulated Horovod ranks in internal/candle) collectively use at most
// GOMAXPROCS kernel goroutines instead of R×GOMAXPROCS — the
// oversubscription the paper identifies as a first-order runtime and
// energy effect.

// parallelThreshold is the number of scalar multiply-adds below which
// kernels stay single-threaded: smaller problems lose more to handoff
// than they gain from parallelism.
const parallelThreshold = 64 * 1024

// poolTask is one row-range of a kernel offered to the pool.
type poolTask struct {
	f      func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// workerPool is one immutable generation of the pool. SetWorkers swaps
// in a fresh generation rather than mutating, so kernels read a
// consistent snapshot without locking.
type workerPool struct {
	tasks chan poolTask // unbuffered: a send succeeds only if a worker is idle
	stop  chan struct{}
	size  int // total worker budget, including the calling goroutine
}

var (
	poolMu  sync.Mutex // serializes SetWorkers
	curPool atomic.Pointer[workerPool]
)

func init() { SetWorkers(runtime.GOMAXPROCS(0)) }

// SetWorkers builds the pool: it bounds the aggregate kernel
// parallelism of the whole process to n goroutines (n-1 persistent
// pool workers plus the caller) and returns the previous budget. The
// budget is shared by all concurrent kernel callers; it is not per
// call. n < 1 is treated as 1, which makes every kernel run serially
// on its caller.
//
// It is the pool's constructor, called once from init with GOMAXPROCS,
// and the tests' way to pin the serial path (SetWorkers(1), restored).
// Nothing else resizes the pool: a run hosting R ranks leaves it alone,
// because a busy pool already makes each caller compute its own rows.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	prev := 0
	if p := curPool.Load(); p != nil {
		prev = p.size
		if prev == n {
			return prev
		}
		close(p.stop) // retire the old generation's workers
	}
	p := &workerPool{tasks: make(chan poolTask), stop: make(chan struct{}), size: n}
	for i := 0; i < n-1; i++ {
		go poolWorker(p)
	}
	curPool.Store(p)
	return prev
}

// Workers returns the current aggregate worker budget.
func Workers() int { return curPool.Load().size }

func poolWorker(p *workerPool) {
	for {
		select {
		case <-p.stop:
			return
		case t := <-p.tasks:
			t.f(t.lo, t.hi)
			t.wg.Done()
		}
	}
}

// serialRows reports whether a kernel over n rows and ~work flops
// runs on the caller alone. Kernels branch on this before building
// their parallel closure: a closure handed to parallelRows escapes to
// the heap (it may be sent to a worker), so the serial fast path must
// avoid constructing it to keep steady-state training allocation-free.
func serialRows(n, work int) bool {
	return work < parallelThreshold || n < 2 || curPool.Load().size < 2
}

// parallelRows runs f over row ranges [lo, hi) of n rows, splitting
// across the shared worker pool when work (an estimate of total
// flops) is large enough. Chunks the pool cannot accept immediately —
// because other callers hold the budget — run on the caller, so the
// call always completes without spawning goroutines and total kernel
// concurrency stays within the pool's budget.
func parallelRows(n, work int, f func(lo, hi int)) {
	p := curPool.Load()
	if work < parallelThreshold || p.size < 2 || n < 2 {
		f(0, n)
		return
	}
	workers := p.size
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	lo := 0
	for lo+chunk < n {
		wg.Add(1)
		sent := false
		select {
		case p.tasks <- poolTask{f: f, lo: lo, hi: lo + chunk, wg: &wg}:
			sent = true
		default:
		}
		if !sent {
			// No idle worker: the caller absorbs the rest of the range.
			wg.Done()
			break
		}
		lo += chunk
	}
	f(lo, n)
	wg.Wait()
}

// SerialRange and ParallelRange are serialRows and parallelRows for an
// element-wise kernel that lives outside this package (the optimizer's
// parameter update): n elements at one unit of work each. The caller
// branches on SerialRange first, for the reason serialRows gives.
func SerialRange(n int) bool { return serialRows(n, n) }

// ParallelRange runs f over disjoint element ranges [lo, hi) that
// together cover [0, n), on the shared pool under the same budget as
// every other kernel.
func ParallelRange(n int, f func(lo, hi int)) { parallelRows(n, n, f) }
