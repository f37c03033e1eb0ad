package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"candle/internal/hpc"
	"candle/internal/power"
	"candle/internal/trace"
)

func mustBench(t testing.TB, name string) BenchCal {
	t.Helper()
	b, err := BenchByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustRun(t testing.TB, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s, %d ranks): %v", cfg.Bench.Name, cfg.Ranks, err)
	}
	return r
}

func strongCfg(bench BenchCal, ranks int, loader Loader) Config {
	return Config{Machine: hpc.Summit(), Bench: bench, Ranks: ranks, Scaling: Strong, Loader: loader}
}

func TestBenchmarksTable1(t *testing.T) {
	for _, tc := range []struct {
		name            string
		epochs, batch   int
		samples         int
		optimizer       string
		trainMB, testMB int
	}{
		{"NT3", 384, 20, 1120, "sgd", 597, 150},
		{"P1B1", 384, 100, 2700, "adam", 771, 258},
		{"P1B2", 768, 60, 2700, "rmsprop", 162, 55},
		{"P1B3", 1, 100, 900100, "sgd", 318, 103},
	} {
		b := mustBench(t, tc.name)
		if b.DefaultEpochs != tc.epochs || b.DefaultBatch != tc.batch ||
			b.TrainSamples != tc.samples || b.Optimizer != tc.optimizer ||
			b.TrainFileMB != tc.trainMB || b.TestFileMB != tc.testMB {
			t.Errorf("%s calibration does not match Table 1: %+v", tc.name, b)
		}
	}
	if _, err := BenchByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestBenchByNameUnknownIsTypedAndActionable(t *testing.T) {
	_, err := BenchByName("NT9")
	var ue *UnknownBenchmarkError
	if !errors.As(err, &ue) {
		t.Fatalf("error %T is not *UnknownBenchmarkError", err)
	}
	if ue.Name != "NT9" {
		t.Fatalf("name = %q", ue.Name)
	}
	for _, want := range []string{"NT3", "P1B1", "P1B2", "P1B3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list %s", err, want)
		}
	}
	if len(ue.Known) != 4 || ue.Known[0] != "NT3" {
		t.Fatalf("Known = %v, want the four pilots in paper order", ue.Known)
	}
}

func TestStepsPerEpochMatchesPaper(t *testing.T) {
	// Paper: NT3 56 steps, P1B1 27, P1B2 45, P1B3 9001.
	if got := mustBench(t, "NT3").StepsPerEpoch(20); got != 56 {
		t.Fatalf("NT3 steps = %d", got)
	}
	if got := mustBench(t, "P1B1").StepsPerEpoch(100); got != 27 {
		t.Fatalf("P1B1 steps = %d", got)
	}
	if got := mustBench(t, "P1B2").StepsPerEpoch(60); got != 45 {
		t.Fatalf("P1B2 steps = %d", got)
	}
	if got := mustBench(t, "P1B3").StepsPerEpoch(100); got != 9001 {
		t.Fatalf("P1B3 steps = %d", got)
	}
}

func TestRunValidation(t *testing.T) {
	nt3 := mustBench(t, "NT3")
	if _, err := Run(Config{Machine: hpc.Summit(), Bench: nt3, Ranks: 0}); err == nil {
		t.Fatal("0 ranks accepted")
	}
	if _, err := Run(Config{Machine: hpc.Summit(), Bench: nt3, Ranks: 1 << 30}); err == nil {
		t.Fatal("absurd rank count accepted")
	}
	other := hpc.Summit()
	other.Name = "Frontier"
	if _, err := Run(Config{Machine: other, Bench: nt3, Ranks: 4}); err == nil {
		t.Fatal("uncalibrated machine accepted")
	}
	if _, err := Run(Config{Machine: hpc.Summit(), Bench: nt3, Ranks: 1, Batch: 2000}); err == nil {
		t.Fatal("batch larger than dataset accepted (should OOM or error)")
	}
	// Only 0 means "the default"; a negative count is a mistake.
	if _, err := Run(Config{Machine: hpc.Summit(), Bench: nt3, Ranks: 6, Epochs: -5}); err == nil {
		t.Fatal("negative epochs accepted")
	}
	if _, err := Run(Config{Machine: hpc.Summit(), Bench: nt3, Ranks: 6, Batch: -3}); err == nil {
		t.Fatal("negative batch accepted")
	}
}

func TestNewConfig(t *testing.T) {
	cfg, err := NewConfig("P1B2", "theta", "chunked")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Machine.Name != "Theta" || cfg.Bench.Name != "P1B2" || cfg.Loader != LoaderChunked {
		t.Fatalf("NewConfig = %s/%s/%s", cfg.Machine.Name, cfg.Bench.Name, cfg.Loader)
	}
	for _, args := range [][3]string{
		{"NT99", "summit", "naive"},
		{"NT3", "frontier", "naive"},
		{"NT3", "summit", "warp"},
	} {
		if _, err := NewConfig(args[0], args[1], args[2]); err == nil {
			t.Errorf("NewConfig%v accepted", args)
		}
	}
}

// --- Figure 6(a): NT3 strong scaling on Summit ---

func TestNT3StrongScalingShape(t *testing.T) {
	nt3 := mustBench(t, "NT3")
	var prevTrain, prevLoad float64
	for i, n := range []int{1, 6, 12, 24, 48, 96, 192, 384} {
		r := mustRun(t, strongCfg(nt3, n, LoaderNaive))
		if i > 0 {
			if r.TrainTime >= prevTrain {
				t.Fatalf("TensorFlow (train) time not decreasing at %d ranks: %v >= %v", n, r.TrainTime, prevTrain)
			}
			if r.LoadTime < prevLoad {
				t.Fatalf("data loading should increase slightly with ranks: %v < %v at %d", r.LoadTime, prevLoad, n)
			}
		}
		prevTrain, prevLoad = r.TrainTime, r.LoadTime
		// Paper: on 48 GPUs or more, data loading dominates.
		if n >= 48 && r.LoadTime < r.TrainTime {
			t.Fatalf("at %d ranks loading (%v) should dominate training (%v)", n, r.LoadTime, r.TrainTime)
		}
		if n < 12 && r.LoadTime > r.TrainTime {
			t.Fatalf("at %d ranks training should dominate", n)
		}
	}
}

func TestNT3SequentialEpochTime(t *testing.T) {
	// Paper: ≈10.30 s per epoch on one V100.
	r := mustRun(t, strongCfg(mustBench(t, "NT3"), 1, LoaderNaive))
	if math.Abs(r.TimePerEpoch-10.3) > 0.5 {
		t.Fatalf("sequential NT3 epoch = %v s, want ≈10.3", r.TimePerEpoch)
	}
	// Larger batch → smaller time per epoch (fewer iterations).
	r40 := mustRun(t, Config{Machine: hpc.Summit(), Bench: mustBench(t, "NT3"), Ranks: 1, Scaling: Strong, Batch: 40, Loader: LoaderNaive})
	if r40.TimePerEpoch >= r.TimePerEpoch {
		t.Fatalf("batch 40 epoch (%v) not faster than batch 20 (%v)", r40.TimePerEpoch, r.TimePerEpoch)
	}
}

func TestNT3EpochTimeGrowsWithRanks(t *testing.T) {
	// Table 2: ≈10 s on 1 GPU → ≈22 s on 384 GPUs (allreduce overhead).
	nt3 := mustBench(t, "NT3")
	r384 := mustRun(t, strongCfg(nt3, 384, LoaderNaive))
	if r384.TimePerEpoch < 18 || r384.TimePerEpoch > 30 {
		t.Fatalf("NT3 epoch on 384 GPUs = %v s, want ≈22", r384.TimePerEpoch)
	}
	// Weak scaling to 3,072 GPUs: more than 3× the sequential epoch
	// (Table 6).
	r3072 := mustRun(t, Config{Machine: hpc.Summit(), Bench: nt3, Ranks: 3072, Scaling: Weak, Epochs: 8, Loader: LoaderNaive})
	if r3072.TimePerEpoch < 3*10.3 {
		t.Fatalf("NT3 epoch on 3072 GPUs = %v s, want > %v", r3072.TimePerEpoch, 3*10.3)
	}
}

func TestNT3DataLoading153sOn384(t *testing.T) {
	// Paper text: "the data loading takes around 153 s" on 384 GPUs.
	r := mustRun(t, strongCfg(mustBench(t, "NT3"), 384, LoaderNaive))
	if r.LoadTime < 100 || r.LoadTime > 170 {
		t.Fatalf("NT3 loading on 384 GPUs = %v s, want ≈153 (±35%%)", r.LoadTime)
	}
}

// --- Figure 6(b) / Table 6: NT3 accuracy ---

func TestNT3AccuracyThresholds(t *testing.T) {
	nt3 := mustBench(t, "NT3")
	// Batch 20: accuracy ≈1 down to 8 epochs/GPU (48 GPUs), collapses
	// at ≤4 epochs (≥96 GPUs).
	for _, n := range []int{12, 24, 48} {
		r := mustRun(t, strongCfg(nt3, n, LoaderNaive))
		if r.Accuracy < 0.98 {
			t.Fatalf("bs20 %d ranks (%d epochs): acc %v, want ≈1", n, r.EpochsPerRank, r.Accuracy)
		}
	}
	r96 := mustRun(t, strongCfg(nt3, 96, LoaderNaive))
	if r96.Accuracy > 0.9 {
		t.Fatalf("bs20 96 ranks (4 epochs): acc %v should drop significantly", r96.Accuracy)
	}
	// Batch 40: accuracy ≈1 only down to 16 epochs (24 GPUs), drops at
	// 48 GPUs.
	cfg := strongCfg(nt3, 24, LoaderNaive)
	cfg.Batch = 40
	if r := mustRun(t, cfg); r.Accuracy < 0.95 {
		t.Fatalf("bs40 24 ranks: acc %v, want ≈1", r.Accuracy)
	}
	cfg.Ranks = 48
	if r := mustRun(t, cfg); r.Accuracy > 0.9 {
		t.Fatalf("bs40 48 ranks: acc %v should drop significantly", r.Accuracy)
	}
}

func TestNT3OOMAtBatch50(t *testing.T) {
	cfg := strongCfg(mustBench(t, "NT3"), 6, LoaderNaive)
	cfg.Batch = 50
	_, err := Run(cfg)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("batch 50 should OOM on V100, got %v", err)
	}
	cfg.Batch = 40
	if _, err := Run(cfg); err != nil {
		t.Fatalf("batch 40 should fit: %v", err)
	}
}

// --- Figures 7b/12/19: broadcast overhead ---

func TestBroadcastOverheadNaiveVsOptimized(t *testing.T) {
	nt3 := mustBench(t, "NT3")
	// Strong scaling, 384 GPUs: 43.72 s → 4.65 s (89.36% reduction).
	naive := mustRun(t, strongCfg(nt3, 384, LoaderNaive))
	opt := mustRun(t, strongCfg(nt3, 384, LoaderChunked))
	if naive.BroadcastTime < 30 || naive.BroadcastTime > 55 {
		t.Fatalf("naive broadcast = %v s, want ≈43.7", naive.BroadcastTime)
	}
	if opt.BroadcastTime < 2 || opt.BroadcastTime > 8 {
		t.Fatalf("optimized broadcast = %v s, want ≈4.65", opt.BroadcastTime)
	}
	red := (naive.BroadcastTime - opt.BroadcastTime) / naive.BroadcastTime * 100
	if red < 80 || red > 95 {
		t.Fatalf("broadcast reduction = %.1f%%, want ≈89.36%%", red)
	}
	// Weak scaling, 768 GPUs: 37.65 s → 5.3 s (85.92%).
	wn := mustRun(t, Config{Machine: hpc.Summit(), Bench: nt3, Ranks: 768, Scaling: Weak, Epochs: 8, Loader: LoaderNaive})
	wo := mustRun(t, Config{Machine: hpc.Summit(), Bench: nt3, Ranks: 768, Scaling: Weak, Epochs: 8, Loader: LoaderChunked})
	wred := (wn.BroadcastTime - wo.BroadcastTime) / wn.BroadcastTime * 100
	if wred < 80 || wred > 95 {
		t.Fatalf("weak-scaling broadcast reduction = %.1f%%, want ≈85.92%%", wred)
	}
}

// --- Figure 11 / Table 5: NT3 improvement on Summit ---

func TestNT3SummitImprovementAndEnergy(t *testing.T) {
	nt3 := mustBench(t, "NT3")
	bestImp, bestE := 0.0, 0.0
	var prevImp float64
	for _, n := range []int{1, 6, 12, 24, 48, 96, 192, 384} {
		naive := mustRun(t, strongCfg(nt3, n, LoaderNaive))
		opt := mustRun(t, strongCfg(nt3, n, LoaderChunked))
		imp := (naive.TotalTime - opt.TotalTime) / naive.TotalTime * 100
		esave := (naive.TotalEnergyJ - opt.TotalEnergyJ) / naive.TotalEnergyJ * 100
		if imp < prevImp {
			t.Fatalf("improvement should grow with ranks under strong scaling: %v < %v at %d", imp, prevImp, n)
		}
		prevImp = imp
		if imp > bestImp {
			bestImp = imp
		}
		if esave > bestE {
			bestE = esave
		}
		// Optimized run draws more average power (less time at
		// low-power loading) but less energy — Table 5.
		if n >= 24 {
			if opt.AvgPowerW <= naive.AvgPowerW {
				t.Fatalf("optimized power (%v) should exceed naive (%v) at %d ranks", opt.AvgPowerW, naive.AvgPowerW, n)
			}
			if opt.TotalEnergyJ >= naive.TotalEnergyJ {
				t.Fatalf("optimized energy should be lower at %d ranks", n)
			}
		}
	}
	// Paper: up to 67.68% performance improvement, up to 55.93% energy
	// saving.
	if bestImp < 60 || bestImp > 80 {
		t.Fatalf("max NT3 Summit improvement = %.1f%%, want ≈67.68%%", bestImp)
	}
	if bestE < 45 || bestE > 65 {
		t.Fatalf("max NT3 Summit energy saving = %.1f%%, want ≈55.93%%", bestE)
	}
}

// --- Figure 13: NT3 on Theta ---

func TestNT3ThetaShapeAndImprovement(t *testing.T) {
	nt3 := mustBench(t, "NT3")
	th := hpc.Theta()
	// Paper: compute-intensive on Theta, ≈695 s/epoch at 24 nodes,
	// ≈965 s at 384 nodes.
	r24 := mustRun(t, Config{Machine: th, Bench: nt3, Ranks: 24, Scaling: Strong, Loader: LoaderNaive})
	if math.Abs(r24.TimePerEpoch-695) > 50 {
		t.Fatalf("Theta 24-node epoch = %v s, want ≈695", r24.TimePerEpoch)
	}
	r384 := mustRun(t, Config{Machine: th, Bench: nt3, Ranks: 384, Scaling: Strong, Loader: LoaderNaive})
	if math.Abs(r384.TimePerEpoch-965) > 60 {
		t.Fatalf("Theta 384-node epoch = %v s, want ≈965", r384.TimePerEpoch)
	}
	// Loading on Theta at scale is >4× Summit (larger contention).
	s384 := mustRun(t, strongCfg(nt3, 384, LoaderNaive))
	if r384.LoadTime < 4*s384.LoadTime {
		t.Fatalf("Theta loading (%v) should be >4× Summit (%v)", r384.LoadTime, s384.LoadTime)
	}
	// Paper: up to 38.46% improvement, 32.21% energy saving on Theta.
	opt := mustRun(t, Config{Machine: th, Bench: nt3, Ranks: 384, Scaling: Strong, Loader: LoaderChunked})
	imp := (r384.TotalTime - opt.TotalTime) / r384.TotalTime * 100
	esave := (r384.TotalEnergyJ - opt.TotalEnergyJ) / r384.TotalEnergyJ * 100
	if imp < 30 || imp > 48 {
		t.Fatalf("Theta NT3 improvement = %.1f%%, want ≈38.46%%", imp)
	}
	if esave < 24 || esave > 42 {
		t.Fatalf("Theta NT3 energy saving = %.1f%%, want ≈32.21%%", esave)
	}
}

// --- Figures 14/16: P1B1 and P1B2 improvements on Summit ---

func TestP1B1SummitImprovement(t *testing.T) {
	p1b1 := mustBench(t, "P1B1")
	// P1B1 requires ≥4 epochs → at most 96 ranks (paper §4.2.2).
	naive := mustRun(t, strongCfg(p1b1, 96, LoaderNaive))
	opt := mustRun(t, strongCfg(p1b1, 96, LoaderChunked))
	imp := (naive.TotalTime - opt.TotalTime) / naive.TotalTime * 100
	esave := (naive.TotalEnergyJ - opt.TotalEnergyJ) / naive.TotalEnergyJ * 100
	// Paper: up to 78.25% improvement and 78% energy saving.
	if imp < 68 || imp > 85 {
		t.Fatalf("P1B1 improvement = %.1f%%, want ≈78.25%%", imp)
	}
	if esave < 66 || esave > 85 {
		t.Fatalf("P1B1 energy saving = %.1f%%, want ≈78%%", esave)
	}
	// Loading dominates at ≥24 ranks (paper).
	r24 := mustRun(t, strongCfg(p1b1, 24, LoaderNaive))
	if r24.LoadTime < r24.TrainTime {
		t.Fatalf("P1B1 loading should dominate at 24 ranks: %v < %v", r24.LoadTime, r24.TrainTime)
	}
}

func TestP1B2SummitImprovement(t *testing.T) {
	p1b2 := mustBench(t, "P1B2")
	naive := mustRun(t, strongCfg(p1b2, 384, LoaderNaive))
	opt := mustRun(t, strongCfg(p1b2, 384, LoaderChunked))
	imp := (naive.TotalTime - opt.TotalTime) / naive.TotalTime * 100
	esave := (naive.TotalEnergyJ - opt.TotalEnergyJ) / naive.TotalEnergyJ * 100
	// Paper: up to 55.45% improvement, 55.44% energy saving (≈equal).
	if imp < 46 || imp > 62 {
		t.Fatalf("P1B2 improvement = %.1f%%, want ≈55.45%%", imp)
	}
	if math.Abs(imp-esave) > 5 {
		t.Fatalf("P1B2 energy saving (%.1f%%) should track improvement (%.1f%%)", esave, imp)
	}
}

func TestP1B2AccuracyCliff(t *testing.T) {
	p1b2 := mustBench(t, "P1B2")
	// Paper: ≥16 epochs/GPU keeps accuracy high; it decreases
	// significantly at 96 GPUs or more (8 epochs).
	r48 := mustRun(t, strongCfg(p1b2, 48, LoaderNaive))
	if r48.EpochsPerRank != 16 || r48.Accuracy < 0.8 {
		t.Fatalf("P1B2 at 48 ranks: epochs %d acc %v", r48.EpochsPerRank, r48.Accuracy)
	}
	r96 := mustRun(t, strongCfg(p1b2, 96, LoaderNaive))
	if r96.Accuracy > 0.6 {
		t.Fatalf("P1B2 at 96 ranks should collapse: acc %v", r96.Accuracy)
	}
}

func TestP1B1LossCurve(t *testing.T) {
	p1b1 := mustBench(t, "P1B1")
	// Loss increases only slightly with batch 110 vs 100 (Figure 8b).
	l100 := p1b1.Loss(16, 100)
	l110 := p1b1.Loss(16, 110)
	if l110 <= l100 {
		t.Fatalf("batch 110 loss (%v) should exceed batch 100 (%v)", l110, l100)
	}
	if l110-l100 > 0.05 {
		t.Fatalf("loss increase should be slight: %v vs %v", l110, l100)
	}
	// More epochs → lower loss.
	if p1b1.Loss(64, 100) >= p1b1.Loss(4, 100) {
		t.Fatal("loss should fall with epochs")
	}
}

// --- Figure 10: P1B3 batch scaling ---

func p1b3Batch(strategy string, n int) int {
	switch strategy {
	case "linear":
		return 100 * n
	case "sqrt":
		return int(100 * math.Sqrt(float64(n)))
	default:
		return int(100 * math.Cbrt(float64(n)))
	}
}

func TestP1B3BatchScalingRuntimeOrdering(t *testing.T) {
	p1b3 := mustBench(t, "P1B3")
	for _, n := range []int{6, 12, 24, 48, 96} {
		var times []float64
		for _, s := range []string{"linear", "sqrt", "cbrt"} {
			cfg := strongCfg(p1b3, n, LoaderNaive)
			cfg.Epochs = 1
			cfg.Batch = p1b3Batch(s, n)
			times = append(times, mustRun(t, cfg).TotalTime)
		}
		if !(times[0] < times[1] && times[1] < times[2]) {
			t.Fatalf("at %d ranks want linear < sqrt < cbrt runtime, got %v", n, times)
		}
	}
}

func TestP1B3LinearScalingOOM(t *testing.T) {
	p1b3 := mustBench(t, "P1B3")
	for _, n := range []int{192, 384} {
		cfg := strongCfg(p1b3, n, LoaderNaive)
		cfg.Epochs = 1
		cfg.Batch = 100 * n
		if _, err := Run(cfg); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("linear scaling at %d ranks should fail execution, got %v", n, err)
		}
	}
	// 96 ranks (batch 9,600) still fits.
	cfg := strongCfg(p1b3, 96, LoaderNaive)
	cfg.Epochs = 1
	cfg.Batch = 9600
	if _, err := Run(cfg); err != nil {
		t.Fatalf("batch 9600 should fit: %v", err)
	}
}

func TestP1B3CubicRootAccuracyBest(t *testing.T) {
	p1b3 := mustBench(t, "P1B3")
	// At 48 GPUs, cubic root (batch 363) gives the highest accuracy,
	// ≈0.6579 (paper).
	var accs []float64
	for _, s := range []string{"linear", "sqrt", "cbrt"} {
		cfg := strongCfg(p1b3, 48, LoaderNaive)
		cfg.Epochs = 1
		cfg.Batch = p1b3Batch(s, 48)
		accs = append(accs, mustRun(t, cfg).Accuracy)
	}
	if !(accs[2] > accs[1] && accs[1] > accs[0]) {
		t.Fatalf("want cbrt > sqrt > linear accuracy, got %v", accs)
	}
	if math.Abs(accs[2]-0.6579) > 0.01 {
		t.Fatalf("cbrt accuracy at 48 GPUs = %v, want ≈0.6579", accs[2])
	}
	// Using 96 GPUs or more does not improve accuracy.
	cfg := strongCfg(p1b3, 96, LoaderNaive)
	cfg.Epochs = 1
	cfg.Batch = p1b3Batch("cbrt", 96)
	if acc96 := mustRun(t, cfg).Accuracy; acc96 >= accs[2] {
		t.Fatalf("96 GPUs (%v) should not beat 48 (%v)", acc96, accs[2])
	}
}

func TestP1B3SmallImprovement(t *testing.T) {
	// §5.4: only up to ≈6.5% improvement for P1B3 (cubic root).
	p1b3 := mustBench(t, "P1B3")
	best := 0.0
	for _, n := range []int{6, 12, 24, 48, 96, 192, 384} {
		cfg := strongCfg(p1b3, n, LoaderNaive)
		cfg.Epochs = 1
		cfg.Batch = p1b3Batch("cbrt", n)
		naive := mustRun(t, cfg)
		cfg.Loader = LoaderChunked
		opt := mustRun(t, cfg)
		imp := (naive.TotalTime - opt.TotalTime) / naive.TotalTime * 100
		if imp > best {
			best = imp
		}
	}
	if best < 2 || best > 12 {
		t.Fatalf("P1B3 improvement = %.1f%%, want small (≈6.5%%)", best)
	}
}

// --- Figure 18 / Table 6: weak scaling ---

func TestNT3WeakScalingImprovementDecreases(t *testing.T) {
	nt3 := mustBench(t, "NT3")
	var imps, esaves []float64
	for _, n := range []int{6, 48, 384, 768, 1536, 3072} {
		naive := mustRun(t, Config{Machine: hpc.Summit(), Bench: nt3, Ranks: n, Scaling: Weak, Epochs: 8, Loader: LoaderNaive})
		opt := mustRun(t, Config{Machine: hpc.Summit(), Bench: nt3, Ranks: n, Scaling: Weak, Epochs: 8, Loader: LoaderChunked})
		if naive.EpochsPerRank != 8 {
			t.Fatalf("weak scaling epochs per rank = %d", naive.EpochsPerRank)
		}
		imps = append(imps, (naive.TotalTime-opt.TotalTime)/naive.TotalTime*100)
		esaves = append(esaves, (naive.TotalEnergyJ-opt.TotalEnergyJ)/naive.TotalEnergyJ*100)
	}
	for i := 1; i < len(imps); i++ {
		if imps[i] > imps[i-1]+0.5 {
			t.Fatalf("weak-scaling improvement should decrease with ranks: %v", imps)
		}
	}
	// Paper: improvement 34.23–52.44%, energy saving 22.31–28.59%.
	for i, imp := range imps {
		if imp < 30 || imp > 56 {
			t.Fatalf("weak improvement[%d] = %.1f%%, want within ≈34–52%%", i, imp)
		}
	}
	for i, es := range esaves {
		if es < 15 || es > 38 {
			t.Fatalf("weak energy saving[%d] = %.1f%%, want within ≈22–29%% (model band 19–36%%)", i, es)
		}
	}
	// Weak-scaling accuracy stays ≈1 at every scale (8 epochs each).
	r := mustRun(t, Config{Machine: hpc.Summit(), Bench: nt3, Ranks: 3072, Scaling: Weak, Epochs: 8, Loader: LoaderChunked})
	if r.Accuracy < 0.98 {
		t.Fatalf("weak-scaling accuracy = %v", r.Accuracy)
	}
}

func TestP1B1P1B2WeakScalingRanges(t *testing.T) {
	// Figure 20: P1B1 75.24–79.50% improvement, 69.70–77.11% energy.
	// Figure 21: P1B2 48.63–56.62% improvement, 45.86–53.91% energy.
	for _, tc := range []struct {
		name                     string
		epochs                   int
		impLo, impHi, esLo, esHi float64
	}{
		{"P1B1", 8, 60, 85, 55, 85},
		{"P1B2", 8, 40, 62, 36, 60},
	} {
		b := mustBench(t, tc.name)
		for _, n := range []int{24, 96, 384} {
			naive := mustRun(t, Config{Machine: hpc.Summit(), Bench: b, Ranks: n, Scaling: Weak, Epochs: tc.epochs, Loader: LoaderNaive})
			opt := mustRun(t, Config{Machine: hpc.Summit(), Bench: b, Ranks: n, Scaling: Weak, Epochs: tc.epochs, Loader: LoaderChunked})
			imp := (naive.TotalTime - opt.TotalTime) / naive.TotalTime * 100
			es := (naive.TotalEnergyJ - opt.TotalEnergyJ) / naive.TotalEnergyJ * 100
			if imp < tc.impLo || imp > tc.impHi {
				t.Fatalf("%s weak improvement at %d = %.1f%%, want [%v, %v]", tc.name, n, imp, tc.impLo, tc.impHi)
			}
			if es < tc.esLo || es > tc.esHi {
				t.Fatalf("%s weak energy saving at %d = %.1f%%, want [%v, %v]", tc.name, n, es, tc.esLo, tc.esHi)
			}
		}
	}
}

// --- Theta improvements for P1B1/P1B2 (Figures 15/17) ---

func TestP1B1P1B2ThetaImprovement(t *testing.T) {
	th := hpc.Theta()
	// Paper: P1B1 up to 45.22%/41.78%; P1B2 up to 40.72%/40.95% on up
	// to 384 nodes. Shapes: nontrivial improvement, energy tracks it.
	for _, tc := range []struct {
		name     string
		maxRanks int
	}{
		{"P1B1", 96}, {"P1B2", 384},
	} {
		b := mustBench(t, tc.name)
		naive := mustRun(t, Config{Machine: th, Bench: b, Ranks: tc.maxRanks, Scaling: Strong, Loader: LoaderNaive})
		opt := mustRun(t, Config{Machine: th, Bench: b, Ranks: tc.maxRanks, Scaling: Strong, Loader: LoaderChunked})
		imp := (naive.TotalTime - opt.TotalTime) / naive.TotalTime * 100
		es := (naive.TotalEnergyJ - opt.TotalEnergyJ) / naive.TotalEnergyJ * 100
		if imp < 10 || imp > 65 {
			t.Fatalf("%s Theta improvement = %.1f%%", tc.name, imp)
		}
		if es <= 0 || es > imp+5 {
			t.Fatalf("%s Theta energy saving = %.1f%% (imp %.1f%%)", tc.name, es, imp)
		}
	}
}

// --- Loader ordering and timeline ---

func TestLoaderOrderingNaiveParallelChunked(t *testing.T) {
	// Paper §5: Dask is better than the original but worse than
	// chunked low_memory=False — for every benchmark and machine.
	for _, m := range []hpc.Machine{hpc.Summit(), hpc.Theta()} {
		for _, b := range Benchmarks() {
			if b.Name == "P1B3" {
				continue // all three are within noise for P1B3's format
			}
			cfg := Config{Machine: m, Bench: b, Ranks: 6, Scaling: Strong, Epochs: 6}
			cfg.Loader = LoaderNaive
			tn := mustRun(t, cfg).LoadTime
			cfg.Loader = LoaderParallel
			tp := mustRun(t, cfg).LoadTime
			cfg.Loader = LoaderChunked
			tc := mustRun(t, cfg).LoadTime
			if !(tc < tp && tp < tn) {
				t.Fatalf("%s/%s loader ordering: naive %v, parallel %v, chunked %v",
					m.Name, b.Name, tn, tp, tc)
			}
		}
	}
}

func TestTimelineEvents(t *testing.T) {
	tl := trace.NewTimeline()
	cfg := strongCfg(mustBench(t, "NT3"), 384, LoaderNaive)
	cfg.Timeline = tl
	cfg.TimelineRanks = 4
	r := mustRun(t, cfg)
	if n := len(tl.Filter("negotiate_broadcast")); n != 4 {
		t.Fatalf("negotiate_broadcast events = %d", n)
	}
	if n := len(tl.Filter("mpi_broadcast")); n != 4 {
		t.Fatalf("mpi_broadcast events = %d", n)
	}
	if n := len(tl.Filter("NCCL_allreduce")); n == 0 {
		t.Fatal("no allreduce events")
	}
	// The broadcast category must span ≈ the run's BroadcastTime.
	start, end, ok := tl.Span("broadcast")
	if !ok {
		t.Fatal("no broadcast span")
	}
	if math.Abs((end-start)-r.BroadcastTime) > 0.5 {
		t.Fatalf("broadcast span %v != BroadcastTime %v", end-start, r.BroadcastTime)
	}
	// Weak scaling with 8 epochs shows 8 communication pieces
	// (Figure 19).
	tl2 := trace.NewTimeline()
	cfg2 := Config{Machine: hpc.Summit(), Bench: mustBench(t, "NT3"), Ranks: 768,
		Scaling: Weak, Epochs: 8, Loader: LoaderNaive, Timeline: tl2, TimelineRanks: 1}
	mustRun(t, cfg2)
	if n := len(tl2.Filter("NCCL_allreduce")); n != 8 {
		t.Fatalf("weak-scaling allreduce pieces = %d, want 8", n)
	}
}

func TestProfileValidAndEnergyConsistent(t *testing.T) {
	r := mustRun(t, strongCfg(mustBench(t, "NT3"), 48, LoaderNaive))
	if err := r.Profile.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Profile.Duration()-r.TotalTime) > 1e-9 {
		t.Fatalf("profile duration %v != total %v", r.Profile.Duration(), r.TotalTime)
	}
	if e := r.PowerModel.Energy(r.Profile); math.Abs(e-r.EnergyJ) > 1e-6 {
		t.Fatalf("energy mismatch: %v vs %v", e, r.EnergyJ)
	}
	if r.TotalEnergyJ != r.EnergyJ*48 {
		t.Fatal("total energy != per-device × ranks")
	}
}

// --- Properties ---

// Property: total time decomposes exactly into the four phases.
func TestQuickPhaseDecomposition(t *testing.T) {
	benches := Benchmarks()
	f := func(seed int64) bool {
		n := 1 + int(seed%17)*(int(seed/17%23)+1)
		if n > 3072 {
			n = 3072
		}
		if n < 1 {
			n = 1
		}
		b := benches[int(uint64(seed)%4)]
		r, err := Run(Config{Machine: hpc.Summit(), Bench: b, Ranks: n, Scaling: Strong, Loader: Loader(uint64(seed) % 3)})
		if err != nil {
			return true // OOM configs are fine
		}
		sum := r.LoadTime + r.BroadcastTime + r.TrainTime + r.EvalTime
		return math.Abs(sum-r.TotalTime) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: accuracy is non-decreasing in epochs and non-increasing in
// batch size (for classification benchmarks).
func TestQuickAccuracyMonotonic(t *testing.T) {
	nt3 := mustBench(t, "NT3")
	f := func(e uint8, b uint8) bool {
		epochs := int(e)%64 + 1
		batch := int(b)%30 + 10
		a1 := nt3.Accuracy(epochs, batch)
		a2 := nt3.Accuracy(epochs+1, batch)
		a3 := nt3.Accuracy(epochs, batch+5)
		return a2 >= a1-1e-12 && a3 <= a1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: allreduce overhead grows with rank count.
func TestQuickAllreduceMonotonic(t *testing.T) {
	cal := SummitCal()
	net := hpc.Summit().Net
	prev := 0.0
	for n := 1; n <= 4096; n *= 2 {
		c := AllreducePerStep(n, 15, 1, cal, net)
		if c < prev {
			t.Fatalf("allreduce overhead decreased at %d ranks", n)
		}
		prev = c
	}
}

func TestScalingAndLoaderStrings(t *testing.T) {
	if Strong.String() != "strong" || Weak.String() != "weak" {
		t.Fatal("scaling strings")
	}
	if LoaderNaive.String() != "naive" || LoaderChunked.String() != "chunked" || LoaderParallel.String() != "parallel" {
		t.Fatal("loader strings")
	}
}

// Property: under weak scaling, total fleet energy grows with ranks
// (more devices burning for at least as long).
func TestQuickWeakScalingEnergyGrows(t *testing.T) {
	nt3 := mustBench(t, "NT3")
	prev := 0.0
	for _, n := range []int{6, 12, 24, 48, 96, 192, 384, 768} {
		r := mustRun(t, Config{Machine: hpc.Summit(), Bench: nt3, Ranks: n,
			Scaling: Weak, Epochs: 8, Loader: LoaderNaive})
		if r.TotalEnergyJ <= prev {
			t.Fatalf("fleet energy not growing at %d ranks", n)
		}
		prev = r.TotalEnergyJ
	}
}

// Property: the chunked loader never loses to the naive loader in
// total time, for any benchmark, machine, or rank count.
func TestQuickChunkedNeverWorse(t *testing.T) {
	for _, m := range []hpc.Machine{hpc.Summit(), hpc.Theta()} {
		for _, b := range Benchmarks() {
			for _, n := range []int{1, 6, 48, 384} {
				naive, err := Run(Config{Machine: m, Bench: b, Ranks: n, Scaling: Strong, Loader: LoaderNaive})
				if err != nil {
					continue
				}
				opt, err := Run(Config{Machine: m, Bench: b, Ranks: n, Scaling: Strong, Loader: LoaderChunked})
				if err != nil {
					t.Fatal(err)
				}
				if opt.TotalTime > naive.TotalTime {
					t.Fatalf("%s/%s/%d: chunked (%v) slower than naive (%v)",
						m.Name, b.Name, n, opt.TotalTime, naive.TotalTime)
				}
			}
		}
	}
}

func TestUnknownLoaderFallsBackToNaive(t *testing.T) {
	nt3 := mustBench(t, "NT3")
	odd := mustRun(t, Config{Machine: hpc.Summit(), Bench: nt3, Ranks: 6,
		Scaling: Strong, Loader: Loader(99)})
	naive := mustRun(t, strongCfg(nt3, 6, LoaderNaive))
	if odd.LoadTime != naive.LoadTime {
		t.Fatalf("unknown loader should behave as naive: %v vs %v", odd.LoadTime, naive.LoadTime)
	}
}

func TestLoadingEnergyShareFallsWithChunkedLoader(t *testing.T) {
	// The paper's energy saving is precisely the loading phase's
	// joules: decompose both runs and verify.
	nt3 := mustBench(t, "NT3")
	naive := mustRun(t, strongCfg(nt3, 384, LoaderNaive))
	opt := mustRun(t, strongCfg(nt3, 384, LoaderChunked))
	ne := naive.PowerModel.PhaseEnergy(naive.Profile)
	oe := opt.PowerModel.PhaseEnergy(opt.Profile)
	if oe[power.DataLoad] >= ne[power.DataLoad] {
		t.Fatalf("chunked loading energy (%v) not below naive (%v)",
			oe[power.DataLoad], ne[power.DataLoad])
	}
	// Compute-phase energy is essentially unchanged (the fix touches
	// only loading).
	if math.Abs(oe[power.Compute]-ne[power.Compute]) > 1e-6 {
		t.Fatalf("compute energy changed: %v vs %v", oe[power.Compute], ne[power.Compute])
	}
	// The saved loading+broadcast joules account for the total saving.
	saved := (ne[power.DataLoad] - oe[power.DataLoad]) + (ne[power.Broadcast] - oe[power.Broadcast]) + (ne[power.Evaluate] - oe[power.Evaluate])
	total := naive.EnergyJ - opt.EnergyJ
	if math.Abs(saved-total) > 1e-6 {
		t.Fatalf("decomposed saving %v != total %v", saved, total)
	}
}
