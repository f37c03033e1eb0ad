package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"candle/internal/advisor"
	"candle/internal/csvio"
	"candle/internal/data"
	"candle/internal/horovod"
	"candle/internal/hpc"
	"candle/internal/mpi"
	"candle/internal/nn"
	"candle/internal/report"
	"candle/internal/sim"
	"candle/internal/tensor"
)

// ExtraExperiments returns drivers for studies beyond the paper's
// figures: the ablations DESIGN.md §7 calls out, rendered as tables.
// They are not part of RunAll (xchunk measures real I/O on the host
// and is therefore not deterministic); candle sweep exposes them by
// ID.
func ExtraExperiments() []Experiment {
	return []Experiment{
		{"xchunk", "Chunked-reader chunk-size sweep (real I/O on this host)",
			"The paper fixes 16 MB (Spectrum Scale's largest I/O block); this sweeps around it", ExtraChunkSweep},
		{"xps", "Ring allreduce vs parameter server: network load",
			"The gRPC/PS baseline concentrates O(N·M) bytes on one endpoint; the ring spreads O(M) per rank", ExtraPSvsRing},
		{"xfusion", "Horovod tensor fusion: collectives per step",
			"Fusion batches small tensors into one allreduce", ExtraFusion},
		{"xadvisor", "Model-driven run recommendations",
			"Min-time and min-energy plans per benchmark at the paper's accuracy levels", ExtraAdvisor},
		{"xdes", "Synchronous straggler amplification (event-driven sim)",
			"Per-rank compute jitter stretches every allreduce step to the slowest rank's pace", ExtraStragglers},
		{"xload", "Tables 3/4 in miniature: real files, real engines, this host",
			"Wide RNA-seq-shaped files gain several × from the chunked engine; narrow integer P1B3-shaped files ≈1×", ExtraLoadersReal},
	}
}

// AllExperimentIDs returns paper + extra experiment IDs.
func AllExperimentIDs() []string {
	ids := IDs()
	for _, e := range ExtraExperiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// ByIDAll looks up paper experiments first, then extras.
func ByIDAll(id string) (Experiment, bool) {
	if e, ok := ByID(id); ok {
		return e, true
	}
	for _, e := range ExtraExperiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ExtraChunkSweep measures the chunked reader across chunk sizes on a
// generated wide CSV (host-dependent wall times).
func ExtraChunkSweep() (*report.Table, error) {
	dir, err := os.MkdirTemp("", "candle-chunk-")
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(1))
	m := tensor.New(64, 6000)
	for i := range m.Data {
		m.Data[i] = rng.Float64() * 100
	}
	path := filepath.Join(dir, "wide.csv")
	if err := csvio.WriteCSV(path, m); err != nil {
		return nil, err
	}
	t := report.New("xchunk", "Chunk-size sweep for the optimized reader (wide file, this host)",
		"chunk", "seconds", "chunks_read")
	for _, tc := range []struct {
		label string
		bytes int
	}{
		{"64KB", 64 << 10}, {"256KB", 256 << 10}, {"1MB", 1 << 20},
		{"4MB", 4 << 20}, {"16MB (paper)", 16 << 20}, {"64MB", 64 << 20},
	} {
		r := &csvio.ChunkedReader{ChunkBytes: tc.bytes}
		// Warm, then best of three.
		if _, _, err := r.Read(path); err != nil {
			return nil, err
		}
		best := 0.0
		chunks := 0
		for rep := 0; rep < 3; rep++ {
			_, stats, err := r.Read(path)
			if err != nil {
				return nil, err
			}
			if best == 0 || stats.Seconds < best {
				best = stats.Seconds
				chunks = stats.Chunks
			}
		}
		t.AddRow(tc.label, report.F(best, 4), report.I(chunks))
	}
	t.AddNote("wall-clock on this host; the paper's 16 MB matches Spectrum Scale's max I/O block")
	return t, nil
}

// ExtraPSvsRing compares per-step traffic of the two distribution
// strategies on the real in-process implementations (deterministic).
func ExtraPSvsRing() (*report.Table, error) {
	t := report.New("xps", "Ring allreduce vs parameter server, one optimizer step",
		"ranks", "strategy", "total_MB", "hotspot_MB", "hotspot_share")
	const elems = 1 << 20 // 8 MB of gradients
	for _, ranks := range []int{2, 4, 8} {
		for _, strategy := range []string{"ring", "paramserver"} {
			w := mpi.NewWorld(ranks)
			err := w.Run(func(c *mpi.Comm) error {
				h := horovod.Init(c, horovod.Options{})
				var opt nn.Optimizer
				if strategy == "ring" {
					opt = h.DistributedOptimizer(nn.NewSGD(0.1))
				} else {
					opt = h.ParameterServerOptimizer(nn.NewSGD(0.1))
				}
				p := &nn.Param{Name: "g", Value: tensor.New(1, elems), Grad: tensor.New(1, elems)}
				opt.Step([]*nn.Param{p})
				return nil
			})
			if err != nil {
				return nil, err
			}
			total := float64(w.BytesSent()) / 1e6
			hot := float64(w.MaxEndpointBytes()) / 1e6
			share := 0.0
			if total > 0 {
				// Every payload byte touches exactly two endpoints, so
				// hot == total means one endpoint sees all traffic.
				share = hot / total * 100
			}
			t.AddRow(report.I(ranks), strategy,
				report.F(total, 1), report.F(hot, 1), report.Pct(share))
		}
	}
	t.AddNote("the PS server touches 100%% of all traffic at any scale; the ring's busiest endpoint falls as ~2/N")
	return t, nil
}

// ExtraFusion counts collectives per optimizer step with fusion on and
// off for a many-tensor model (deterministic).
func ExtraFusion() (*report.Table, error) {
	t := report.New("xfusion", "Horovod tensor fusion: collectives per optimizer step",
		"tensors", "fusion", "allreduce_calls")
	for _, tensors := range []int{4, 16, 64} {
		for _, fusion := range []bool{true, false} {
			w := mpi.NewWorld(2)
			calls := 0
			err := w.Run(func(c *mpi.Comm) error {
				fb := 0 // default 64 MB
				if !fusion {
					fb = -1
				}
				h := horovod.Init(c, horovod.Options{FusionBytes: fb})
				d := h.DistributedOptimizer(nn.NewSGD(0.1))
				params := make([]*nn.Param, tensors)
				for i := range params {
					params[i] = &nn.Param{
						Name:  fmt.Sprintf("t%d", i),
						Value: tensor.New(8, 8),
						Grad:  tensor.New(8, 8),
					}
				}
				d.Step(params)
				if c.Rank() == 0 {
					calls = d.AllreduceCalls
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			label := "on (64MB)"
			if !fusion {
				label = "off"
			}
			t.AddRow(report.I(tensors), label, report.I(calls))
		}
	}
	t.AddNote("fusion keeps one collective per step regardless of tensor count")
	return t, nil
}

// ExtraStragglers sweeps per-rank compute jitter through the
// event-driven simulator and reports the synchronous-training penalty
// — a what-if the paper's closed-form reasoning cannot express.
func ExtraStragglers() (*report.Table, error) {
	nt3, err := sim.BenchByName("NT3")
	if err != nil {
		return nil, err
	}
	t := report.New("xdes", "Straggler amplification for NT3 on 48 Summit GPUs (8 epochs each)",
		"compute_jitter", "train_s", "penalty_s", "total_s")
	cfg := sim.Config{Machine: hpc.Summit(), Bench: nt3, Ranks: 48,
		Scaling: sim.Strong, Loader: sim.LoaderChunked}
	for _, j := range []float64{0, 0.02, 0.05, 0.10, 0.20} {
		r, err := sim.RunDES(cfg, sim.DESOptions{ComputeJitter: j})
		if err != nil {
			return nil, err
		}
		t.AddRow(report.Pct(j*100), report.F(r.TrainTime, 1),
			report.F(r.StragglerPenalty, 1), report.F(r.TotalTime, 1))
	}
	t.AddNote("with jitter 0 the event-driven run reproduces the closed-form model exactly")
	return t, nil
}

// ExtraLoadersReal is a miniature of Tables 3/4 measured for real on
// this host: moderate-size streamed files with the two contrasting
// shapes (wide floats vs narrow integers), timed through all three
// engines.
func ExtraLoadersReal() (*report.Table, error) {
	dir, err := os.MkdirTemp("", "candle-xload-")
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer os.RemoveAll(dir)

	wideSpec := data.NT3()
	wideSpec = wideSpec.Scaled(18, 1) // full 60,483-column rows, few of them
	widePath := filepath.Join(dir, "wide.csv")
	wideBytes, err := data.WriteSyntheticCSV(wideSpec, widePath, wideSpec.TrainSamples, 1)
	if err != nil {
		return nil, err
	}
	narrowSpec := data.P1B3().Scaled(100, 1) // full 1,000-column rows, many of them
	narrowPath := filepath.Join(dir, "narrow.csv")
	narrowBytes, err := data.WriteSyntheticCSV(narrowSpec, narrowPath, narrowSpec.TrainSamples, 1)
	if err != nil {
		return nil, err
	}

	t := report.New("xload", "Real data-loading comparison on this host (streamed synthetic files)",
		"file", "size_MB", "engine", "seconds", "speedup_vs_original")
	for _, f := range []struct {
		label string
		path  string
		bytes int64
	}{
		{"NT3-shaped (wide floats)", widePath, wideBytes},
		{"P1B3-shaped (narrow ints)", narrowPath, narrowBytes},
	} {
		baseline := 0.0
		for _, r := range csvio.Readers() {
			if _, _, err := r.Read(f.path); err != nil { // warm the cache
				return nil, err
			}
			best := 0.0
			for rep := 0; rep < 3; rep++ {
				_, stats, err := r.Read(f.path)
				if err != nil {
					return nil, err
				}
				if best == 0 || stats.Seconds < best {
					best = stats.Seconds
				}
			}
			speed := "1.0x"
			if baseline == 0 {
				baseline = best
			} else if best > 0 {
				speed = report.F(baseline/best, 1) + "x"
			}
			t.AddRow(f.label, report.F(float64(f.bytes)/1e6, 1), r.Name(),
				report.F(best, 3), speed)
		}
	}
	t.AddNote("paper Tables 3/4: wide files gain ~4–7x from chunked low_memory=False, narrow P1B3-style ~1x")
	return t, nil
}

// ExtraAdvisor tabulates the model-driven recommendations for each
// benchmark (deterministic; uses the calibrated simulator).
func ExtraAdvisor() (*report.Table, error) {
	t := report.New("xadvisor", "Model-driven run plans (Summit, chunked loader expected)",
		"benchmark", "objective", "constraint", "workers", "batch", "loader", "time_s", "energy_MJ")
	for _, tc := range []struct {
		bench     string
		objective advisor.Objective
		minAcc    float64
		note      string
	}{
		{"NT3", advisor.MinTime, 0.99, "acc ≥ 0.99"},
		{"NT3", advisor.MinEnergy, 0.99, "acc ≥ 0.99"},
		{"P1B2", advisor.MinTime, 0.85, "acc ≥ 0.85"},
		{"P1B1", advisor.MinTime, 0, "none"},
	} {
		best, _, err := advisor.Recommend(advisor.Request{
			Benchmark: tc.bench, Machine: hpc.Summit(),
			Objective: tc.objective, MinAccuracy: tc.minAcc,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(tc.bench, tc.objective.String(), tc.note,
			report.I(best.Workers), report.I(best.Batch), best.Engine,
			report.F(best.TimeS, 1), report.F(best.EnergyJ/1e6, 2))
	}
	return t, nil
}
