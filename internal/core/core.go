// Package core is the paper's experiment harness: for every table and
// figure in the evaluation (Tables 1–6, Figures 6–21, §5.4), a driver
// that regenerates the same rows or series from this repository's
// models — the scaling strategies of Figure 4, the strong-/weak-
// scaling sweeps, the data-loader comparison, and the
// performance/energy improvement studies.
package core

import (
	"fmt"
	"math"
	"sort"

	"candle/internal/report"
	"candle/internal/sim"
	"candle/internal/trace"
)

// SummitGPUs is the strong-scaling sweep of Figures 6–17 (1–384 GPUs;
// 64 Summit nodes × 6 GPUs).
var SummitGPUs = []int{1, 6, 12, 24, 48, 96, 192, 384}

// WeakGPUs is the weak-scaling sweep of Figures 18–21 (up to 3,072
// GPUs = 512 nodes).
var WeakGPUs = []int{6, 12, 24, 48, 96, 192, 384, 768, 1536, 3072}

// ThetaNodes is the Theta strong-scaling sweep (up to 384 nodes).
var ThetaNodes = []int{24, 48, 96, 192, 384}

// BatchStrategy names one of the batch-size scaling strategies of
// Figure 4(b).
type BatchStrategy string

// The three strategies the paper evaluates on P1B3.
const (
	Linear     BatchStrategy = "linear"
	SquareRoot BatchStrategy = "sqrt"
	CubicRoot  BatchStrategy = "cbrt"
)

// BatchStrategies lists the strategies in paper order.
func BatchStrategies() []BatchStrategy { return []BatchStrategy{Linear, SquareRoot, CubicRoot} }

// BatchFor applies a strategy to the base batch size for the given
// worker count: linear = B×N, square root = int(B×√N), cubic root =
// int(B×∛N).
func BatchFor(s BatchStrategy, base, workers int) (int, error) {
	switch s {
	case Linear:
		return base * workers, nil
	case SquareRoot:
		return int(float64(base) * math.Sqrt(float64(workers))), nil
	case CubicRoot:
		return int(float64(base) * math.Cbrt(float64(workers))), nil
	default:
		return 0, fmt.Errorf("core: unknown batch strategy %q", s)
	}
}

// Improvement returns the paper's performance-improvement percentage:
// (orig − opt) / orig × 100.
func Improvement(orig, opt float64) float64 {
	if orig == 0 {
		return 0
	}
	return (orig - opt) / orig * 100
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID matches the paper artifact: "table1".."table6",
	// "fig6a".."fig21", "sec5.4".
	ID    string
	Title string
	// Paper summarizes what the paper reports, for EXPERIMENTS.md.
	Paper string
	Run   func() (*report.Table, error)
}

// Experiments returns every driver, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Benchmark configurations", "Epochs, batch size, LR, optimizer, samples, file sizes for the P1 benchmarks", Table1},
		{"fig6a", "Horovod NT3 performance on Summit (strong scaling)", "TensorFlow time, total runtime (bs 40), data loading vs 1-384 GPUs; loading dominates at ≥48 GPUs", Figure6a},
		{"fig6b", "Horovod NT3 accuracy on Summit", "Accuracy 1.0 down to 8 epochs/GPU (bs 20); bs 40 collapses one doubling earlier", Figure6b},
		{"table2", "NT3 time per epoch and average GPU power", "Time/epoch 10.3 s (1 GPU) to ~22 s (384 GPUs); larger batch → lower power", Table2},
		{"fig7a", "NT3 GPU power over time on 384 GPUs", "Long low-power data-loading prefix, then high-power training", Figure7a},
		{"fig7b", "Horovod timeline for NT3 on 384 GPUs", "Broadcast takes ≈43 s after data loading; allreduce cadence follows", Figure7b},
		{"fig8a", "Horovod P1B1 performance on Summit", "Data loading dominates at ≥24 GPUs (bs 100/110)", Figure8a},
		{"fig8b", "Horovod P1B1 training loss", "Loss increases only slightly with bs 110", Figure8b},
		{"fig9a", "Horovod P1B2 performance on Summit", "Data loading starts to dominate with increasing GPUs (bs 60/100)", Figure9a},
		{"fig9b", "Horovod P1B2 accuracy", "Accuracy decreases significantly at ≥96 GPUs (≥16 epochs/GPU needed)", Figure9b},
		{"fig10a", "Horovod P1B3 batch-scaling performance", "linear < sqrt < cbrt runtime; linear fails at 192/384 GPUs (batch 19,200/38,400)", Figure10a},
		{"fig10b", "Horovod P1B3 batch-scaling accuracy", "Cubic root best; 0.6579 at 48 GPUs; no gain beyond 96 GPUs", Figure10b},
		{"table3", "Data-loading time by method on Summit", "Chunked low_memory=False: NT3 ~5×, P1B1 >7×, P1B2 ~3×, P1B3 ~1× speedup", Table3},
		{"table4", "Data-loading time by method on Theta", "Chunked low_memory=False: NT3 ~4×, P1B1 >5×, P1B2 ~3×, P1B3 ~1× speedup", Table4},
		{"fig11", "Optimized NT3 performance on Summit", "Up to 67.68% improvement under strong scaling", Figure11},
		{"table5", "NT3 GPU power and energy, original vs optimized", "Power up to +68.77%; energy down up to 55.93%", Table5},
		{"fig12", "Optimized NT3 broadcast timeline (384 GPUs)", "Broadcast overhead 43.72 s → 4.65 s (89.36% reduction)", Figure12},
		{"fig13", "NT3 on Theta, original vs optimized", "Up to 38.46% improvement, 32.21% energy saving", Figure13},
		{"fig14", "P1B1 improvement on Summit", "Up to 78.25% improvement, 78% energy saving", Figure14},
		{"fig15", "P1B1 improvement on Theta", "Up to 45.22% improvement, 41.78% energy saving", Figure15},
		{"fig16", "P1B2 improvement on Summit", "Up to 55.45% improvement, 55.44% energy saving", Figure16},
		{"fig17", "P1B2 improvement on Theta", "Up to 40.72% improvement, 40.95% energy saving", Figure17},
		{"sec5.4", "P1B3 improvement on Summit (cubic root)", "Only up to 6.50% improvement (data loading already fast)", Section54},
		{"fig18", "NT3 weak scaling on Summit (8 epochs/GPU)", "34.23–52.44% improvement and 22.31–28.59% energy saving up to 3,072 GPUs, decreasing with scale", Figure18},
		{"fig19", "NT3 weak-scaling timeline on 768 GPUs", "Broadcast 37.65 s → 5.3 s (85.92%); 8 communication pieces for 8 epochs", Figure19},
		{"table6", "NT3 weak-scaling accuracy, time/epoch, GPU power", "Accuracy ≈1 everywhere; epoch time >3× sequential at 3,072 GPUs", Table6},
		{"fig20", "P1B1 weak scaling on Summit", "75.24–79.50% improvement, 69.70–77.11% energy saving", Figure20},
		{"fig21", "P1B2 weak scaling on Summit", "48.63–56.62% improvement, 45.86–53.91% energy saving", Figure21},
	}
}

// ByID returns the driver for one paper artifact.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, returning tables in paper order.
func RunAll() ([]*report.Table, error) {
	var out []*report.Table
	for _, e := range Experiments() {
		t, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", e.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// --- shared sweep helpers ---

func run(machine, bench string, ranks int, scaling sim.Scaling, epochs, batch int, loader string) (*sim.Result, error) {
	cfg, err := sim.NewConfig(bench, machine, loader)
	if err != nil {
		return nil, err
	}
	cfg.Ranks, cfg.Scaling, cfg.Epochs, cfg.Batch = ranks, scaling, epochs, batch
	return sim.Run(cfg)
}

func mustSummit(bench string, ranks int, batch int, loader string) (*sim.Result, error) {
	return run("summit", bench, ranks, sim.Strong, 0, batch, loader)
}

// nt3Timeline simulates NT3 on Summit recording the Horovod timeline
// of its first 8 ranks: Figures 7b, 12 and 19.
func nt3Timeline(ranks int, scaling sim.Scaling, epochs int, loader string) (*trace.Timeline, *sim.Result, error) {
	cfg, err := sim.NewConfig("NT3", "summit", loader)
	if err != nil {
		return nil, nil, err
	}
	cfg.Ranks, cfg.Scaling, cfg.Epochs, cfg.Timeline = ranks, scaling, epochs, trace.NewTimeline()
	r, err := sim.Run(cfg)
	return cfg.Timeline, r, err
}

// improvementTable builds the orig-vs-optimized table shared by
// Figures 11, 13–17, 20, 21.
func improvementTable(id, title, machine, bench string, scaling sim.Scaling, epochs int, ranksList []int) (*report.Table, error) {
	t := report.New(id, title,
		"workers", "original_total_s", "optimized_total_s", "improvement",
		"original_energy_kJ", "optimized_energy_kJ", "energy_saving")
	maxImp, maxES := 0.0, 0.0
	for _, n := range ranksList {
		orig, err := run(machine, bench, n, scaling, epochs, 0, "naive")
		if err != nil {
			return nil, err
		}
		opt, err := run(machine, bench, n, scaling, epochs, 0, "chunked")
		if err != nil {
			return nil, err
		}
		imp := Improvement(orig.TotalTime, opt.TotalTime)
		es := Improvement(orig.TotalEnergyJ, opt.TotalEnergyJ)
		if imp > maxImp {
			maxImp = imp
		}
		if es > maxES {
			maxES = es
		}
		t.AddRow(report.I(n),
			report.F(orig.TotalTime, 1), report.F(opt.TotalTime, 1), report.Pct(imp),
			report.F(orig.TotalEnergyJ/1e3, 1), report.F(opt.TotalEnergyJ/1e3, 1), report.Pct(es))
	}
	t.AddNote("max improvement %.2f%%, max energy saving %.2f%%", maxImp, maxES)
	return t, nil
}

// ranksUpTo filters a sweep to worker counts that keep at least
// minEpochs per rank under strong scaling of totalEpochs.
func ranksUpTo(sweep []int, totalEpochs, minEpochs int) []int {
	var out []int
	for _, n := range sweep {
		if totalEpochs/n >= minEpochs {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// timelineSummary condenses a Horovod timeline into span rows.
func timelineSummary(t *report.Table, tl *trace.Timeline) {
	for _, cat := range []string{"io", "broadcast", "allreduce", "compute"} {
		start, end, ok := tl.Span(cat)
		if !ok {
			continue
		}
		t.AddRow(cat, report.F(start, 2), report.F(end, 2), report.F(end-start, 2),
			report.I(len(tl.FilterCat(cat))))
	}
}
