package serve

import (
	"math"
	"sync"
	"time"
)

// Retry-After advice for a refused request: the time the current
// backlog needs to drain at the measured rate, not a fixed constant.

// drainTracker estimates the server's current drain rate (delivered
// responses per second) from timestamped samples of the completion
// counter, smoothing with an EWMA so one quiet sample does not zero
// the estimate.
type drainTracker struct {
	mu    sync.Mutex
	lastT time.Time
	lastC uint64
	rate  float64 // completions/second, EWMA
}

// drainSampleEvery spaces rate samples: more frequent calls reuse the
// previous estimate instead of dividing by near-zero intervals.
const drainSampleEvery = 50 * time.Millisecond

// observe folds the completion count at now into the estimate and
// returns the current rate.
func (d *drainTracker) observe(now time.Time, completed uint64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lastT.IsZero() {
		d.lastT, d.lastC = now, completed
		return d.rate
	}
	dt := now.Sub(d.lastT)
	if dt < drainSampleEvery {
		return d.rate
	}
	inst := float64(completed-d.lastC) / dt.Seconds()
	if d.rate == 0 {
		d.rate = inst
	} else {
		d.rate = 0.5*d.rate + 0.5*inst
	}
	d.lastT, d.lastC = now, completed
	return d.rate
}

// maxRetryAfterSeconds caps the advice: past it the client should be
// told "come back much later" rather than a precise ETA.
const maxRetryAfterSeconds = 30

// retryAfterSeconds turns a queue depth and a drain rate into
// Retry-After advice: the time the current backlog needs to drain,
// rounded up to whole seconds and clamped to [1, 30]. A zero rate
// with work queued means nothing is draining — advise the cap; a zero
// rate with an empty queue (a server that has not seen traffic yet)
// advises the minimum.
func retryAfterSeconds(depth int, rate float64) int {
	if rate <= 0 {
		if depth == 0 {
			return 1
		}
		return maxRetryAfterSeconds
	}
	secs := int(math.Ceil(float64(depth+1) / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
}

// RetryAfterSeconds is the live Retry-After for a rejected request:
// current queue depth over the measured drain rate.
func (s *Server) RetryAfterSeconds() int {
	rate := s.drain.observe(time.Now(), s.completed.Load())
	return retryAfterSeconds(len(s.queue), rate)
}
