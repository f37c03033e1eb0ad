package horovod

import (
	"math"
	"testing"
	"time"

	"candle/internal/mpi"
	"candle/internal/nn"
	"candle/internal/tensor"
)

// The overlap benchmark models the regime the async pipeline targets:
// communication that stalls at collective entry (slow links, an
// oversubscribed NIC, a straggling peer) while backward compute is
// still available to run. A scripted per-collective delay on rank 0
// plays the slow network; in sync mode every rank eats that delay at
// step end, while the overlap coordinator absorbs it concurrently
// with the remaining backward pass. Both modes run the identical
// collective sequence (same fusion groups, same order), so the
// injected delays are identical too — the wall-clock difference is
// pure overlap.

// benchModel is wider than the unit-test model so one backward pass
// has enough compute to hide communication behind.
func benchModel(tb testing.TB, opt nn.Optimizer, dtype tensor.DType) *nn.Sequential {
	m := nn.NewSequential("overlap-bench",
		nn.NewDense(512), nn.NewActivation("relu"),
		nn.NewDense(512), nn.NewActivation("relu"),
		nn.NewDense(256), nn.NewActivation("relu"),
		nn.NewDense(10), nn.NewSoftmax())
	if err := m.SetDType(dtype); err != nil {
		tb.Fatal(err)
	}
	if err := m.Compile(128, nn.CategoricalCrossEntropy{}, opt, 7); err != nil {
		tb.Fatal(err)
	}
	return m
}

func benchBatch(rank int) (*tensor.Matrix, *tensor.Matrix) {
	x := tensor.New(32, 128)
	y := tensor.New(32, 10)
	for i := 0; i < 32; i++ {
		for j := 0; j < 128; j++ {
			x.Set(i, j, math.Sin(float64((rank+1)*(i*128+j+1))))
		}
		y.Set(i, (i+rank)%10, 1)
	}
	return x, y
}

// measureOverlapRun times nsteps of distributed training (after
// warmup) with a per-collective entry delay injected on rank 0, and
// returns seconds per step plus the allreduce count per step.
func measureOverlapRun(tb testing.TB, size, nsteps, fusionBytes int, overlap bool, delay time.Duration) (secPerStep float64, callsPerStep float64) {
	return measureOverlapRunD(tb, size, nsteps, fusionBytes, overlap, delay, tensor.F64)
}

// measureOverlapRunD is measureOverlapRun at a chosen compute
// precision. The f32 path still reduces f64 gradients (promoted at
// the layer boundary), so the collective sequence is identical across
// precisions — only the compute shrinks.
func measureOverlapRunD(tb testing.TB, size, nsteps, fusionBytes int, overlap bool, delay time.Duration, dtype tensor.DType) (secPerStep float64, callsPerStep float64) {
	const warmup = 2
	w := mpi.NewWorld(size)
	if delay > 0 {
		plan := mpi.NewFaultPlan()
		// Cover every collective either mode can reach; both modes
		// run the same sequence, so the injected stall total matches.
		for s := 0; s < 10000; s++ {
			plan.DelayAt(0, s, delay)
		}
		w.InjectFaults(plan)
	}
	elapsed := make([]float64, size)
	calls := make([]int, size)
	err := w.Run(func(c *mpi.Comm) error {
		h := Init(c, Options{FusionBytes: fusionBytes, Overlap: overlap})
		dist := h.DistributedOptimizer(nn.NewSGD(0.01))
		defer dist.Close()
		m := benchModel(tb, dist, dtype)
		if overlap {
			m.SetGradSink(dist)
		}
		x, y := benchBatch(c.Rank())
		for s := 0; s < warmup; s++ {
			m.TrainBatch(x, y)
		}
		preCalls := dist.AllreduceCalls
		t0 := time.Now()
		for s := 0; s < nsteps; s++ {
			m.TrainBatch(x, y)
			if err := dist.Err(); err != nil {
				return err
			}
		}
		elapsed[c.Rank()] = time.Since(t0).Seconds()
		calls[c.Rank()] = dist.AllreduceCalls - preCalls
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	var worst float64
	for _, e := range elapsed {
		if e > worst {
			worst = e
		}
	}
	return worst / float64(nsteps), float64(calls[0]) / float64(nsteps)
}

// BenchmarkTrainStep compares per-step wall time with the pipeline
// off and on under a 2 ms per-collective stall:
//
//	go test -bench TrainStep -run '^$' ./internal/horovod
func BenchmarkTrainStep(b *testing.B) {
	for _, overlap := range []bool{false, true} {
		name := "sync"
		if overlap {
			name = "overlap"
		}
		b.Run(name, func(b *testing.B) {
			sec, _ := measureOverlapRun(b, 2, b.N, 64<<10, overlap, 2*time.Millisecond)
			b.ReportMetric(sec*1e9, "wall-ns/step")
		})
	}
}

// BenchmarkTrainStepDType compares per-step distributed training wall
// time at f64 vs f32 (overlap on, no injected stall): the f32 step
// runs the fused packed kernels while the allreduce still moves f64
// gradients, so the speedup is pure compute:
//
//	go test -bench TrainStepDType -run '^$' ./internal/horovod
func BenchmarkTrainStepDType(b *testing.B) {
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		b.Run(dt.String(), func(b *testing.B) {
			sec, _ := measureOverlapRunD(b, 2, b.N, 64<<10, true, 0, dt)
			b.ReportMetric(sec*1e9, "wall-ns/step")
		})
	}
}
