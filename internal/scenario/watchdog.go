package scenario

import (
	"fmt"
	"runtime"
	"time"

	"candle/internal/candle"
)

// DeadlockError is the watchdog's verdict on a run that never came
// back: the third invariant says every scenario either completes or
// surfaces a typed error, so "still blocked after the timeout" is
// itself a typed failure, carrying a full goroutine dump of the stuck
// world instead of a hung process.
type DeadlockError struct {
	Seed    int64
	Phase   string // which harness run hung ("base", "twin", ...)
	Timeout time.Duration
	// Stacks is the full all-goroutine dump captured at the deadline —
	// the collective every blocked rank is parked in.
	Stacks string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("scenario: seed %d: %s run did not return within %v (deadlock; %d bytes of goroutine stacks captured)",
		e.Seed, e.Phase, e.Timeout, len(e.Stacks))
}

// RunFunc executes one configured benchmark run. The harness defaults
// to (*candle.Benchmark).Run; tests substitute wrappers to plant
// invariant violations (swallow the typed error, block forever) and
// prove the harness catches them.
type RunFunc func(b *candle.Benchmark, cfg candle.RunConfig) (*candle.RunResult, error)

// execute runs one configuration under the watchdog. On timeout the
// run's goroutines are abandoned (they are unrecoverable by
// construction — that is what the dump is for) and a *DeadlockError is
// returned in their place.
func (h *Harness) execute(seed int64, phase string, b *candle.Benchmark, cfg candle.RunConfig) (*candle.RunResult, error) {
	run := h.Run
	if run == nil {
		run = func(b *candle.Benchmark, cfg candle.RunConfig) (*candle.RunResult, error) {
			// A socket transport without a rendezvous address is the
			// harness's multi-process form: socketProcs rendezvous'd
			// worker sessions inside this process, real links between.
			if cfg.Transport != "" && cfg.Transport != "inproc" && cfg.Rendezvous == "" {
				return b.RunMultiProc(cfg, socketProcs)
			}
			return b.Run(cfg)
		}
	}
	timeout := h.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	type outcome struct {
		res *candle.RunResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := run(b, cfg)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(timeout):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		return nil, &DeadlockError{Seed: seed, Phase: phase, Timeout: timeout, Stacks: string(buf[:n])}
	}
}
