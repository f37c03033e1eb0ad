package core

import (
	"errors"
	"fmt"

	"candle/internal/report"
	"candle/internal/sim"
)

// Table1 regenerates the benchmark-configuration table.
func Table1() (*report.Table, error) {
	t := report.New("table1", "Epochs, batch size, data samples, and file sizes for the P1 benchmarks",
		"benchmark", "train_MB", "test_MB", "epochs", "batch", "lr", "optimizer", "train_samples", "elems_per_sample_k")
	for _, b := range sim.Benchmarks() {
		lr := report.F(b.LearningRate, 3)
		if b.Name == "P1B1" {
			lr = "none" // Table 1: adam uses its default
		}
		t.AddRow(b.Name, report.I(b.TrainFileMB), report.I(b.TestFileMB),
			report.I(b.DefaultEpochs), report.I(b.DefaultBatch), lr, b.Optimizer,
			report.I(b.TrainSamples), report.F(float64(b.Features)/1000, 3))
	}
	return t, nil
}

// Figure6a regenerates the NT3 strong-scaling performance series.
func Figure6a() (*report.Table, error) {
	t := report.New("fig6a", "Horovod NT3 on Summit: performance vs GPUs",
		"gpus", "tensorflow_s(bs20)", "total_runtime_s(bs20)", "total_runtime_s(bs40)", "data_loading_s")
	for _, n := range SummitGPUs {
		r20, err := mustSummit("NT3", n, 20, "naive")
		if err != nil {
			return nil, err
		}
		r40, err := mustSummit("NT3", n, 40, "naive")
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(n), report.F(r20.TrainTime, 1), report.F(r20.TotalTime, 1),
			report.F(r40.TotalTime, 1), report.F(r20.LoadTime, 1))
	}
	t.AddNote("paper: data loading dominates total runtime at 48 GPUs or more")
	return t, nil
}

// Figure6b regenerates the NT3 accuracy series for batch sizes 20/40.
func Figure6b() (*report.Table, error) {
	t := report.New("fig6b", "Horovod NT3 on Summit: training accuracy vs GPUs",
		"gpus", "epochs_per_gpu", "accuracy(bs20)", "accuracy(bs40)")
	for _, n := range SummitGPUs {
		r20, err := mustSummit("NT3", n, 20, "naive")
		if err != nil {
			return nil, err
		}
		r40, err := mustSummit("NT3", n, 40, "naive")
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(n), report.I(r20.EpochsPerRank),
			report.F(r20.Accuracy, 3), report.F(r40.Accuracy, 3))
	}
	t.AddNote("paper: proper epochs per GPU is 8; ≤4 epochs collapses accuracy")
	return t, nil
}

// Table2 regenerates the NT3 time/epoch and average GPU power table.
func Table2() (*report.Table, error) {
	t := report.New("table2", "Time per epoch (s) and average GPU power (W) for Horovod NT3",
		"gpus", "time_per_epoch_s(bs20)", "time_per_epoch_s(bs40)", "avg_gpu_power_W(bs20)", "avg_gpu_power_W(bs40)")
	for _, n := range SummitGPUs {
		r20, err := mustSummit("NT3", n, 20, "naive")
		if err != nil {
			return nil, err
		}
		r40, err := mustSummit("NT3", n, 40, "naive")
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(n), report.F(r20.TimePerEpoch, 2), report.F(r40.TimePerEpoch, 2),
			report.F(r20.AvgPowerW, 1), report.F(r40.AvgPowerW, 1))
	}
	t.AddNote("paper: ~10 s/epoch on 1 GPU rising to ~22 s on 384 GPUs; larger batch lowers both")
	return t, nil
}

// Figure7a regenerates the per-GPU power trace on 384 GPUs (1 Hz
// nvidia-smi sampling), thinned for tabulation.
func Figure7a() (*report.Table, error) {
	r, err := mustSummit("NT3", 384, 20, "naive")
	if err != nil {
		return nil, err
	}
	t := report.New("fig7a", "NT3 GPU power over time on 384 GPUs (1 Hz samples, every 10th shown)",
		"t_s", "gpu_power_W")
	for i, row := range PowerTrace(r).Rows {
		if i%10 == 0 {
			t.AddRow(row...)
		}
	}
	t.AddNote("data loading ≈%.0f s at low power, then broadcast, then high-power training", r.LoadTime)
	return t, nil
}

// Figure7b regenerates the Horovod timeline summary for NT3 on 384
// GPUs; `candle run -mode sim -timeline` writes the raw Chrome-trace
// events.
func Figure7b() (*report.Table, error) {
	tl, r, err := nt3Timeline(384, sim.Strong, 0, "naive")
	if err != nil {
		return nil, err
	}
	t := report.New("fig7b", "Horovod timeline for NT3 on 384 GPUs (original loader)",
		"category", "start_s", "end_s", "span_s", "events")
	timelineSummary(t, tl)
	t.AddNote("broadcast overhead %.2f s (paper: ≈43.72 s)", r.BroadcastTime)
	return t, nil
}

// Figure8a regenerates the P1B1 performance series (bs 100/110).
func Figure8a() (*report.Table, error) {
	t := report.New("fig8a", "Horovod P1B1 on Summit: performance vs GPUs",
		"gpus", "tensorflow_s(bs100)", "total_runtime_s(bs100)", "total_runtime_s(bs110)", "data_loading_s")
	// P1B1 requires at least 4 epochs → at most 96 GPUs.
	for _, n := range ranksUpTo(SummitGPUs, 384, 4) {
		r100, err := mustSummit("P1B1", n, 100, "naive")
		if err != nil {
			return nil, err
		}
		r110, err := mustSummit("P1B1", n, 110, "naive")
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(n), report.F(r100.TrainTime, 1), report.F(r100.TotalTime, 1),
			report.F(r110.TotalTime, 1), report.F(r100.LoadTime, 1))
	}
	t.AddNote("paper: data loading dominates at 24 GPUs or more")
	return t, nil
}

// Figure8b regenerates the P1B1 training-loss series.
func Figure8b() (*report.Table, error) {
	t := report.New("fig8b", "Horovod P1B1 on Summit: training loss vs GPUs",
		"gpus", "epochs_per_gpu", "loss(bs100)", "loss(bs110)")
	for _, n := range ranksUpTo(SummitGPUs, 384, 4) {
		r100, err := mustSummit("P1B1", n, 100, "naive")
		if err != nil {
			return nil, err
		}
		r110, err := mustSummit("P1B1", n, 110, "naive")
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(n), report.I(r100.EpochsPerRank),
			report.F(r100.Loss, 4), report.F(r110.Loss, 4))
	}
	t.AddNote("paper: the loss increases only slightly for both batch sizes")
	return t, nil
}

// Figure9a regenerates the P1B2 performance series (bs 60/100).
func Figure9a() (*report.Table, error) {
	t := report.New("fig9a", "Horovod P1B2 on Summit: performance vs GPUs",
		"gpus", "tensorflow_s(bs60)", "total_runtime_s(bs60)", "total_runtime_s(bs100)", "data_loading_s")
	for _, n := range SummitGPUs {
		r60, err := mustSummit("P1B2", n, 60, "naive")
		if err != nil {
			return nil, err
		}
		r100, err := mustSummit("P1B2", n, 100, "naive")
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(n), report.F(r60.TrainTime, 1), report.F(r60.TotalTime, 1),
			report.F(r100.TotalTime, 1), report.F(r60.LoadTime, 1))
	}
	t.AddNote("paper: data loading starts to dominate with increasing GPUs")
	return t, nil
}

// Figure9b regenerates the P1B2 accuracy series.
func Figure9b() (*report.Table, error) {
	t := report.New("fig9b", "Horovod P1B2 on Summit: accuracy vs GPUs",
		"gpus", "epochs_per_gpu", "accuracy(bs60)", "accuracy(bs100)")
	for _, n := range SummitGPUs {
		r60, err := mustSummit("P1B2", n, 60, "naive")
		if err != nil {
			return nil, err
		}
		r100, err := mustSummit("P1B2", n, 100, "naive")
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(n), report.I(r60.EpochsPerRank),
			report.F(r60.Accuracy, 3), report.F(r100.Accuracy, 3))
	}
	t.AddNote("paper: accuracy decreases significantly at 96 GPUs or more (≥16 epochs/GPU needed)")
	return t, nil
}

// Figure10a regenerates the P1B3 batch-scaling performance series.
func Figure10a() (*report.Table, error) {
	t := report.New("fig10a", "Horovod P1B3 on Summit: batch-scaling performance",
		"gpus", "batch(linear)", "runtime_s(linear)", "batch(sqrt)", "runtime_s(sqrt)", "batch(cbrt)", "runtime_s(cbrt)")
	for _, n := range SummitGPUs {
		cells := []string{report.I(n)}
		for _, s := range BatchStrategies() {
			batch, err := BatchFor(s, 100, n)
			if err != nil {
				return nil, err
			}
			r, err := run("summit", "P1B3", n, sim.Strong, 1, batch, "naive")
			switch {
			case errors.Is(err, sim.ErrOutOfMemory):
				cells = append(cells, report.I(batch), "FAILED(OOM)")
			case err != nil:
				return nil, err
			default:
				cells = append(cells, report.I(batch), report.F(r.TotalTime, 1))
			}
		}
		t.AddRow(cells...)
	}
	t.AddNote("paper: linear scaling fastest; batch 19,200/38,400 (192/384 GPUs) causes failed execution")
	return t, nil
}

// Figure10b regenerates the P1B3 batch-scaling accuracy series.
func Figure10b() (*report.Table, error) {
	t := report.New("fig10b", "Horovod P1B3 on Summit: batch-scaling accuracy",
		"gpus", "accuracy(linear)", "accuracy(sqrt)", "accuracy(cbrt)")
	for _, n := range SummitGPUs {
		cells := []string{report.I(n)}
		for _, s := range BatchStrategies() {
			batch, err := BatchFor(s, 100, n)
			if err != nil {
				return nil, err
			}
			r, err := run("summit", "P1B3", n, sim.Strong, 1, batch, "naive")
			switch {
			case errors.Is(err, sim.ErrOutOfMemory):
				cells = append(cells, "FAILED(OOM)")
			case err != nil:
				return nil, err
			default:
				cells = append(cells, report.F(r.Accuracy, 4))
			}
		}
		t.AddRow(cells...)
	}
	t.AddNote("paper: cubic root best; 48 GPUs with batch int(100·48^(1/3))=363 gives 0.6579")
	return t, nil
}

// loadTable regenerates Table 3 (Summit) or Table 4 (Theta).
func loadTable(id string, cal sim.MachineCal) (*report.Table, error) {
	t := report.New(id, "Data loading (s) by method on "+cal.Name,
		"benchmark", "file", "size_MB", "pandas.read_csv(original)", "dask-like", "chunked low_memory=False", "speedup")
	for _, b := range sim.Benchmarks() {
		l, ok := cal.Load[b.Name]
		if !ok {
			return nil, fmt.Errorf("no load calibration for %s", b.Name)
		}
		t.AddRow(b.Name, "training", report.I(b.TrainFileMB),
			report.F(l.NaiveTrain, 2), report.F(l.ParallelTrain, 2), report.F(l.ChunkTrain, 2),
			report.F(l.NaiveTrain/l.ChunkTrain, 1)+"x")
		t.AddRow(b.Name, "testing", report.I(b.TestFileMB),
			report.F(l.NaiveTest, 2), report.F(l.ParallelTest, 2), report.F(l.ChunkTest, 2),
			report.F(l.NaiveTest/l.ChunkTest, 1)+"x")
	}
	t.AddNote("original and chunked columns are the paper's Table values; internal/csvio reproduces the mechanism on real files")
	return t, nil
}

// Table3 regenerates the Summit data-loading comparison.
func Table3() (*report.Table, error) { return loadTable("table3", sim.SummitCal()) }

// Table4 regenerates the Theta data-loading comparison.
func Table4() (*report.Table, error) { return loadTable("table4", sim.ThetaCal()) }

// Figure11 regenerates the NT3 original-vs-optimized study on Summit.
func Figure11() (*report.Table, error) {
	return improvementTable("fig11", "Horovod NT3 on Summit: original vs optimized",
		"summit", "NT3", sim.Strong, 0, SummitGPUs)
}

// Table5 regenerates the NT3 power/energy comparison.
func Table5() (*report.Table, error) {
	t := report.New("table5", "GPU power (W) and energy (J) for Horovod NT3 on Summit",
		"gpus", "power_W(orig)", "power_W(opt)", "power_increase", "energy_kJ/GPU(orig)", "energy_kJ/GPU(opt)", "energy_saving")
	for _, n := range SummitGPUs {
		orig, err := mustSummit("NT3", n, 20, "naive")
		if err != nil {
			return nil, err
		}
		opt, err := mustSummit("NT3", n, 20, "chunked")
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(n),
			report.F(orig.AvgPowerW, 1), report.F(opt.AvgPowerW, 1),
			report.Pct(-Improvement(orig.AvgPowerW, opt.AvgPowerW)),
			report.F(orig.EnergyJ/1e3, 2), report.F(opt.EnergyJ/1e3, 2),
			report.Pct(Improvement(orig.EnergyJ, opt.EnergyJ)))
	}
	t.AddNote("paper: optimized power up to +68.77%% (less low-power loading); energy down up to 55.93%%")
	return t, nil
}

// Figure12 regenerates the optimized-broadcast timeline comparison.
func Figure12() (*report.Table, error) {
	orig, err := mustSummit("NT3", 384, 0, "naive")
	if err != nil {
		return nil, err
	}
	opt, err := mustSummit("NT3", 384, 0, "chunked")
	if err != nil {
		return nil, err
	}
	t := report.New("fig12", "Broadcast overhead for NT3 on 384 GPUs, original vs optimized",
		"loader", "broadcast_overhead_s")
	t.AddRow("original", report.F(orig.BroadcastTime, 2))
	t.AddRow("optimized", report.F(opt.BroadcastTime, 2))
	t.AddNote("reduction %.2f%% (paper: 43.72 s → 4.65 s, 89.36%%)",
		Improvement(orig.BroadcastTime, opt.BroadcastTime))
	return t, nil
}

// Figure13 regenerates the NT3 Theta improvement study.
func Figure13() (*report.Table, error) {
	return improvementTable("fig13", "Horovod NT3 on Theta: original vs optimized",
		"theta", "NT3", sim.Strong, 0, ThetaNodes)
}

// Figure14 regenerates the P1B1 Summit improvement study.
func Figure14() (*report.Table, error) {
	return improvementTable("fig14", "Horovod P1B1 on Summit: original vs optimized",
		"summit", "P1B1", sim.Strong, 0, ranksUpTo(SummitGPUs, 384, 4))
}

// Figure15 regenerates the P1B1 Theta improvement study.
func Figure15() (*report.Table, error) {
	return improvementTable("fig15", "Horovod P1B1 on Theta: original vs optimized",
		"theta", "P1B1", sim.Strong, 0, ranksUpTo(ThetaNodes, 384, 4))
}

// Figure16 regenerates the P1B2 Summit improvement study.
func Figure16() (*report.Table, error) {
	return improvementTable("fig16", "Horovod P1B2 on Summit: original vs optimized",
		"summit", "P1B2", sim.Strong, 0, SummitGPUs)
}

// Figure17 regenerates the P1B2 Theta improvement study.
func Figure17() (*report.Table, error) {
	return improvementTable("fig17", "Horovod P1B2 on Theta: original vs optimized",
		"theta", "P1B2", sim.Strong, 0, ThetaNodes)
}

// Section54 regenerates the P1B3 (cubic-root) improvement study.
func Section54() (*report.Table, error) {
	t := report.New("sec5.4", "Horovod P1B3 on Summit (cubic root): original vs optimized",
		"gpus", "batch", "original_total_s", "optimized_total_s", "improvement")
	maxImp := 0.0
	for _, n := range SummitGPUs {
		batch, err := BatchFor(CubicRoot, 100, n)
		if err != nil {
			return nil, err
		}
		orig, err := run("summit", "P1B3", n, sim.Strong, 1, batch, "naive")
		if err != nil {
			return nil, err
		}
		opt, err := run("summit", "P1B3", n, sim.Strong, 1, batch, "chunked")
		if err != nil {
			return nil, err
		}
		imp := Improvement(orig.TotalTime, opt.TotalTime)
		if imp > maxImp {
			maxImp = imp
		}
		t.AddRow(report.I(n), report.I(batch),
			report.F(orig.TotalTime, 1), report.F(opt.TotalTime, 1), report.Pct(imp))
	}
	t.AddNote("max improvement %.2f%% (paper: up to 6.50%%; the P1B3 file format barely benefits)", maxImp)
	return t, nil
}

// Figure18 regenerates the NT3 weak-scaling study (8 epochs/GPU).
func Figure18() (*report.Table, error) {
	return improvementTable("fig18", "Horovod NT3 on Summit, weak scaling (8 epochs/GPU)",
		"summit", "NT3", sim.Weak, 8, WeakGPUs)
}

// Figure19 regenerates the weak-scaling timeline on 768 GPUs.
func Figure19() (*report.Table, error) {
	tlOrig, orig, err := nt3Timeline(768, sim.Weak, 8, "naive")
	if err != nil {
		return nil, err
	}
	opt, err := run("summit", "NT3", 768, sim.Weak, 8, 0, "chunked")
	if err != nil {
		return nil, err
	}
	t := report.New("fig19", "NT3 weak-scaling timeline on 768 GPUs",
		"loader", "broadcast_overhead_s", "allreduce_pieces")
	pieces := len(tlOrig.Filter("NCCL_allreduce")) / 8 // per shown rank
	t.AddRow("original", report.F(orig.BroadcastTime, 2), report.I(pieces))
	t.AddRow("optimized", report.F(opt.BroadcastTime, 2), report.I(pieces))
	t.AddNote("reduction %.2f%% (paper: 37.65 s → 5.3 s, 85.92%%); 8 communication pieces for 8 epochs",
		Improvement(orig.BroadcastTime, opt.BroadcastTime))
	return t, nil
}

// Table6 regenerates the weak-scaling accuracy/epoch-time/power table.
func Table6() (*report.Table, error) {
	t := report.New("table6", "NT3 weak scaling: accuracy, time/epoch (s), avg GPU power (W)",
		"gpus", "accuracy(orig)", "accuracy(opt)", "time_per_epoch_s(orig)", "time_per_epoch_s(opt)", "power_W(orig)", "power_W(opt)")
	for _, n := range append([]int{1}, WeakGPUs...) {
		orig, err := run("summit", "NT3", n, sim.Weak, 8, 0, "naive")
		if err != nil {
			return nil, err
		}
		opt, err := run("summit", "NT3", n, sim.Weak, 8, 0, "chunked")
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(n),
			report.F(orig.Accuracy, 3), report.F(opt.Accuracy, 3),
			report.F(orig.TimePerEpoch, 2), report.F(opt.TimePerEpoch, 2),
			report.F(orig.AvgPowerW, 1), report.F(opt.AvgPowerW, 1))
	}
	t.AddNote("paper: sequential epoch 10.30 s; >3x larger on 3,072 GPUs from allreduce overhead")
	return t, nil
}

// Figure20 regenerates the P1B1 weak-scaling study.
func Figure20() (*report.Table, error) {
	return improvementTable("fig20", "Horovod P1B1 on Summit, weak scaling (8 epochs/GPU)",
		"summit", "P1B1", sim.Weak, 8, WeakGPUs)
}

// Figure21 regenerates the P1B2 weak-scaling study.
func Figure21() (*report.Table, error) {
	return improvementTable("fig21", "Horovod P1B2 on Summit, weak scaling (8 epochs/GPU)",
		"summit", "P1B2", sim.Weak, 8, WeakGPUs)
}
