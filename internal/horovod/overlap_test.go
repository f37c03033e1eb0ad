package horovod

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"candle/internal/mpi"
	"candle/internal/nn"
	"candle/internal/tensor"
	"candle/internal/trace"
)

// rankBatch builds a deterministic per-rank training batch shaped for
// buildRankModel (3 inputs, 2 classes).
func rankBatch(rank int) (*tensor.Matrix, *tensor.Matrix) {
	x := tensor.New(6, 3)
	y := tensor.New(6, 2)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, float64(rank+1)*0.1*float64(i*3+j+1))
		}
		y.Set(i, (i+rank)%2, 1)
	}
	return x, y
}

// trainSteps runs nsteps of synchronized training on every rank of a
// fresh world and returns rank 0's final weights and allreduce count,
// after checking all replicas agree. Models are seeded per rank, then aligned by the
// broadcast hook; per-rank batches keep the allreduce averaging
// genuinely diverging gradients.
func trainSteps(t *testing.T, size, nsteps, fusionBytes int, overlap bool, cycle time.Duration) ([]float64, int) {
	t.Helper()
	w := mpi.NewWorld(size)
	weights := make([][]float64, size)
	calls := make([]int, size)
	err := w.Run(func(c *mpi.Comm) error {
		h := Init(c, Options{FusionBytes: fusionBytes, Overlap: overlap, CycleTime: cycle})
		dist := h.DistributedOptimizer(nn.NewSGD(0.05))
		defer dist.Close()
		m := buildRankModel(t, int64(c.Rank()), dist)
		if overlap {
			m.SetGradSink(dist)
		}
		if err := h.BroadcastHook(0).Broadcast(m); err != nil {
			return err
		}
		x, y := rankBatch(c.Rank())
		for s := 0; s < nsteps; s++ {
			m.TrainBatch(x, y)
			if err := dist.Err(); err != nil {
				return err
			}
		}
		weights[c.Rank()] = m.WeightsVector()
		calls[c.Rank()] = dist.AllreduceCalls
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < size; r++ {
		for i := range weights[0] {
			if weights[0][i] != weights[r][i] {
				t.Fatalf("replicas diverged at weight %d: rank0=%v rank%d=%v", i, weights[0][i], r, weights[r][i])
			}
		}
	}
	return weights[0], calls[0]
}

// TestOverlapBitIdenticalToSync is the tentpole's correctness claim:
// the async pipeline must produce exactly the weights the synchronous
// path produces — same fusion groups, same ring addition order — for
// several fusion-buffer sizes, including fusion disabled.
func TestOverlapBitIdenticalToSync(t *testing.T) {
	for _, fusion := range []int{0, 64, -1} {
		t.Run(fmt.Sprintf("fusion=%d", fusion), func(t *testing.T) {
			sync, syncCalls := trainSteps(t, 4, 6, fusion, false, 0)
			async, asyncCalls := trainSteps(t, 4, 6, fusion, true, 0)
			// Same fusion groups, so the same collectives, in number too.
			if syncCalls != asyncCalls {
				t.Fatalf("allreduce calls: sync %d, overlap %d", syncCalls, asyncCalls)
			}
			if len(sync) == 0 || len(sync) != len(async) {
				t.Fatalf("weight count mismatch: %d vs %d", len(sync), len(async))
			}
			for i := range sync {
				if sync[i] != async[i] {
					t.Fatalf("weight %d differs: sync=%v overlap=%v", i, sync[i], async[i])
				}
			}
		})
	}
}

// TestOverlapCycleTimeBitIdentical: a positive CycleTime batches
// coordinator wakeups but must not change the numerics.
func TestOverlapCycleTimeBitIdentical(t *testing.T) {
	sync, syncCalls := trainSteps(t, 3, 4, 96, false, 0)
	async, asyncCalls := trainSteps(t, 3, 4, 96, true, 200*time.Microsecond)
	if syncCalls != asyncCalls {
		t.Fatalf("allreduce calls with CycleTime: sync %d, overlap %d", syncCalls, asyncCalls)
	}
	for i := range sync {
		if sync[i] != async[i] {
			t.Fatalf("weight %d differs with CycleTime: sync=%v overlap=%v", i, sync[i], async[i])
		}
	}
}

// TestOverlapRecordsTimelineEvents: the async path must emit
// queue_wait (per flush) and allreduce_overlap (per step) events, and
// negotiate_allreduce must measure a real span — with a straggler
// delayed at the first collective, the on-time rank's negotiation
// wait has to be visibly non-zero (the old implementation recorded a
// zero-duration marker).
func TestOverlapRecordsTimelineEvents(t *testing.T) {
	const size, steps = 2, 3
	tl := trace.NewTimeline()
	w := mpi.NewWorld(size)
	// Step 0 is the first flush's negotiation barrier; delaying rank 1
	// there stretches rank 0's negotiate_allreduce span.
	w.InjectFaults(mpi.NewFaultPlan().DelayAt(1, 0, 10*time.Millisecond))
	err := boundedRun(t, w, func(c *mpi.Comm) error {
		h := Init(c, Options{FusionBytes: -1, Overlap: true, Timeline: tl})
		dist := h.DistributedOptimizer(nn.NewSGD(0.05))
		defer dist.Close()
		m := buildRankModel(t, int64(c.Rank()), dist)
		m.SetGradSink(dist)
		x, y := rankBatch(c.Rank())
		for s := 0; s < steps; s++ {
			m.TrainBatch(x, y)
			if err := dist.Err(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var queueWaits, overlaps, negotiates int
	var sawPositiveNegotiate bool
	for _, ev := range tl.Events() {
		switch ev.Name {
		case "queue_wait":
			queueWaits++
			if ev.Dur < 0 {
				t.Fatalf("queue_wait with negative duration %v", ev.Dur)
			}
		case "allreduce_overlap":
			overlaps++
		case "negotiate_allreduce":
			negotiates++
			if ev.Dur >= 5e-3 {
				sawPositiveNegotiate = true
			}
		}
	}
	if overlaps != size*steps {
		t.Fatalf("got %d allreduce_overlap events, want %d (one per rank per step)", overlaps, size*steps)
	}
	if queueWaits == 0 {
		t.Fatal("no queue_wait events recorded")
	}
	if negotiates == 0 {
		t.Fatal("no negotiate_allreduce events recorded")
	}
	if !sawPositiveNegotiate {
		t.Fatal("no negotiate_allreduce captured the straggler wait; negotiation duration is not being measured")
	}
}

// TestOverlapSingleRankNoCoordinator: a world of one needs no
// pipeline; GradReady and Close must be safe no-ops and no messages
// may move.
func TestOverlapSingleRankNoCoordinator(t *testing.T) {
	w := mpi.NewWorld(1)
	err := w.Run(func(c *mpi.Comm) error {
		h := Init(c, Options{Overlap: true})
		dist := h.DistributedOptimizer(nn.NewSGD(0.05))
		defer dist.Close()
		m := buildRankModel(t, 0, dist)
		m.SetGradSink(dist)
		x, y := rankBatch(0)
		m.TrainBatch(x, y)
		if dist.AllreduceCalls != 0 {
			return fmt.Errorf("single rank issued %d allreduces, want 0", dist.AllreduceCalls)
		}
		return dist.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MessagesSent() != 0 {
		t.Fatalf("single-rank overlap sent %d messages, want 0", w.MessagesSent())
	}
}

// TestOverlapCoordinatorFailureUnwinds: a rank killed inside a
// coordinator-issued allreduce must surface on every rank — the
// sticky error crosses from the background goroutine to the trainer,
// Fit aborts via the Failer interface, nothing deadlocks, and Close
// returns. The timeline must still attribute the root cause.
func TestOverlapCoordinatorFailureUnwinds(t *testing.T) {
	const size, killed = 3, 1
	tl := trace.NewTimeline()
	w := mpi.NewWorld(size)
	// Steps 0-1 are the broadcast hook's barrier + broadcast; step 2
	// is the first flush's negotiation barrier, entered by the
	// coordinator goroutine.
	w.InjectFaults(mpi.NewFaultPlan().KillAt(killed, 2))
	err := boundedRun(t, w, func(c *mpi.Comm) error {
		h := Init(c, Options{Overlap: true, Timeline: tl})
		dist := h.DistributedOptimizer(nn.NewSGD(0.05))
		defer dist.Close()
		m := buildRankModel(t, int64(c.Rank()), dist)
		m.SetGradSink(dist)
		x, y := rankBatch(c.Rank())
		_, err := m.Fit(x, y, nn.FitConfig{
			Epochs: 3, BatchSize: 6,
			Callbacks: []nn.Callback{h.BroadcastHook(0)},
		})
		if err == nil {
			t.Errorf("rank %d: Fit succeeded despite coordinator kill", c.Rank())
		}
		// The failure is sticky across the drain handshake.
		if dist.Err() == nil {
			t.Errorf("rank %d: Err() nil after coordinator failure", c.Rank())
		}
		return err
	})
	var rf *mpi.RankFailedError
	if !errors.As(err, &rf) || rf.Rank != killed {
		t.Fatalf("Run error = %v, want RankFailedError naming rank %d", err, killed)
	}
	if got := len(tl.Filter("rank_failed")); got != 1 {
		t.Errorf("rank_failed events = %d, want 1", got)
	}
	if got := len(tl.Filter("abort")); got != size-1 {
		t.Errorf("abort events = %d, want %d", got, size-1)
	}
}

// TestOverlapFailureIsSticky: after a coordinator failure every
// subsequent step returns the same error without touching the
// network, and Close still returns promptly.
func TestOverlapFailureIsSticky(t *testing.T) {
	const size = 2
	w := mpi.NewWorld(size)
	// No timeline: the first collective either rank enters is the
	// coordinator's drain-time allreduce.
	w.InjectFaults(mpi.NewFaultPlan().KillAt(0, 0))
	err := boundedRun(t, w, func(c *mpi.Comm) error {
		h := Init(c, Options{Overlap: true})
		dist := h.DistributedOptimizer(nn.NewSGD(0.05))
		defer dist.Close()
		m := buildRankModel(t, int64(c.Rank()), dist)
		m.SetGradSink(dist)
		x, y := rankBatch(c.Rank())
		m.TrainBatch(x, y)
		first := dist.Err()
		if first == nil {
			return fmt.Errorf("rank %d: first step did not fail", c.Rank())
		}
		m.TrainBatch(x, y)
		if second := dist.Err(); !errors.Is(second, first) {
			return fmt.Errorf("sticky error changed: %v vs %v", second, first)
		}
		return first
	})
	// The world aborted on the injected kill; Run surfaces that.
	var rf *mpi.RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 0 {
		t.Fatalf("Run error = %v, want RankFailedError naming rank 0", err)
	}
}
