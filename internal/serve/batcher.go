package serve

import (
	"fmt"
	"time"

	"candle/internal/tensor"
)

// This file is the dynamic micro-batcher: the serving analogue of
// Horovod's fusion buffer. MaxBatch plays FusionBytes (how much to
// coalesce), MaxWait plays CycleTime (how long to wait for more), and
// the trade is the same one the paper tunes for collectives — larger
// batches amortize per-call overhead, longer waits add latency.

// batchLoop pulls admitted requests off the queue, coalesces them,
// and dispatches each batch to a free replica. One goroutine runs the
// loop; batches execute on their own goroutines so up to
// cfg.Replicas forwards proceed concurrently.
func (s *Server) batchLoop() {
	defer s.loopWG.Done()
	for {
		select {
		case first := <-s.queue:
			s.dispatch(s.collect(first))
		case <-s.stopc:
			// Drain whatever Shutdown's inflight.Wait already saw
			// admitted (in practice the queue is empty by now).
			for {
				select {
				case first := <-s.queue:
					s.dispatch(s.collect(first))
				default:
					return
				}
			}
		}
	}
}

// collect grows a batch around its first request: up to MaxBatch rows,
// waiting at most MaxWait after the first arrival. A shutdown flush
// (drainc) takes what is queued and stops waiting.
func (s *Server) collect(first *Request) []*Request {
	maxBatch, maxWait := s.cfg.MaxBatch, s.cfg.MaxWait
	batch := make([]*Request, 1, maxBatch)
	batch[0] = first
	if maxBatch <= 1 {
		return batch
	}
	if maxWait <= 0 {
		// Opportunistic only: take what is already there.
		for len(batch) < maxBatch {
			select {
			case p := <-s.queue:
				batch = append(batch, p)
			default:
				return batch
			}
		}
		return batch
	}
	timer := time.NewTimer(maxWait)
	defer timer.Stop()
	for len(batch) < maxBatch {
		// Fast path: under load the queue almost always has the next
		// request ready, and a non-blocking receive is several times
		// cheaper than the three-way select below.
		select {
		case p := <-s.queue:
			batch = append(batch, p)
			continue
		default:
		}
		select {
		case p := <-s.queue:
			batch = append(batch, p)
		case <-timer.C:
			return batch
		case <-s.drainc:
			for len(batch) < maxBatch {
				select {
				case p := <-s.queue:
					batch = append(batch, p)
				default:
					return batch
				}
			}
			return batch
		}
	}
	return batch
}

// dispatch hands a batch to a free replica of the current generation.
// Waiting on the free list is the second stage of backpressure: while
// every replica is busy the queue fills, and past QueueDepth new
// requests bounce with 429.
func (s *Server) dispatch(batch []*Request) {
	rs := s.rs.Load()
	rep := <-rs.free
	s.batchWG.Add(1)
	go func() {
		defer s.batchWG.Done()
		s.runBatch(rep, batch)
		rs.free <- rep
	}()
}

// runBatch stages the batch's rows into the replica's input buffer,
// runs one Forward, and fans the output rows back to their waiters.
func (s *Server) runBatch(rep *replica, batch []*Request) {
	n := len(batch)
	dim := s.cfg.InputDim
	// One clock read prices every member's queue wait; the phase keeps
	// recording the first (longest-waiting) request's.
	start := time.Now()
	s.metrics.phases.Record("queue_wait", start.Sub(batch[0].enqueued).Seconds())
	s.metrics.batchSize.Observe(float64(n))

	in := tensor.FromSlice(n, dim, rep.buf[:n*dim])
	for i, p := range batch {
		copy(rep.buf[i*dim:(i+1)*dim], p.Features)
	}
	if s.testHookForward != nil {
		s.testHookForward()
	}
	fwdStart := time.Now()
	out, err := safePredict(rep, in)
	s.metrics.phases.Record("forward", time.Since(fwdStart).Seconds())
	if err != nil {
		s.metrics.errored.Add(uint64(n))
		for _, p := range batch {
			p.Err = err
			s.deliver(p)
		}
		return
	}
	// One clock read prices the whole batch's latency observations:
	// per-request time.Now calls were a measurable slice of the hot
	// path on this container.
	done := time.Now()
	for i, p := range batch {
		s.metrics.latency.Observe(done.Sub(p.enqueued).Seconds())
		// Copy out of the replica's reusable output buffer (into the
		// request's own, reused across submissions) before the replica
		// returns to the pool.
		p.Pred = append(p.Pred[:0], out.Row(i)...)
		p.Err = nil
		p.BatchSize, p.QueueWait = n, start.Sub(p.enqueued)
		s.deliver(p)
	}
}

// deliver hands a finished request back to its submitter and releases
// its admission slot (the inflight count Shutdown drains on).
func (s *Server) deliver(p *Request) {
	p.done <- p
	s.completed.Add(1)
	s.inflight.Done()
}

// safePredict shields the batcher from a panicking Forward: a shape
// bug must fail the batch's requests, not the whole server.
func safePredict(rep *replica, in *tensor.Matrix) (out *tensor.Matrix, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: model forward panicked: %v", r)
		}
	}()
	return rep.m.Predict(in), nil
}
