package candle

import (
	"math"
	"testing"

	"candle/internal/csvio"
	"candle/internal/nn"
	"candle/internal/trace"
)

// pilot1 is the paper's four benchmarks, in paper order; Scaled also
// knows the Pilot2/Pilot3-style P2B1 and P3B1.
var pilot1 = []string{"NT3", "P1B1", "P1B2", "P1B3"}

func TestDefaultBenchmarksBuildAndCompile(t *testing.T) {
	for _, name := range append(pilot1, "P2B1", "P3B1") {
		b, err := Default(name)
		if err != nil {
			t.Fatal(err)
		}
		m := b.Build(b.Spec)
		if err := m.Compile(b.Spec.Features, b.Loss, nn.NewOptimizer(b.Cal.Optimizer, 0.01), 1); err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if m.ParamCount() == 0 {
			t.Fatalf("%s: no parameters", name)
		}
		switch name {
		case "P1B1", "P2B1":
			if m.OutputDim() != b.Spec.Features {
				t.Fatalf("%s autoencoder output %d != input %d", name, m.OutputDim(), b.Spec.Features)
			}
		case "P1B3":
			if m.OutputDim() != 1 {
				t.Fatalf("P1B3 regression output = %d", m.OutputDim())
			}
		default:
			if m.OutputDim() != b.Spec.Classes {
				t.Fatalf("%s output %d != classes %d", name, m.OutputDim(), b.Spec.Classes)
			}
		}
	}
	if _, err := Default("XYZ"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestHyperparametersMatchTable1(t *testing.T) {
	nt3, _ := Default("NT3")
	if nt3.Cal.DefaultBatch != 20 || nt3.Cal.Optimizer != "sgd" || nt3.Cal.LearningRate != 0.001 {
		t.Fatalf("NT3 hyperparameters: %+v", nt3.Cal)
	}
	p1b1, _ := Default("P1B1")
	if p1b1.Cal.Optimizer != "adam" {
		t.Fatal("P1B1 should use adam")
	}
	p1b2, _ := Default("P1B2")
	if p1b2.Cal.Optimizer != "rmsprop" || p1b2.Cal.DefaultEpochs != 768 {
		t.Fatal("P1B2 hyperparameters wrong")
	}
}

func TestFullScaleSpecsPreserved(t *testing.T) {
	b := NT3(1, 1)
	if b.Spec.Features != 60483 || b.Spec.TrainSamples != 1120 {
		t.Fatalf("full NT3 spec: %+v", b.Spec)
	}
	// The full-scale model must still build (kernels fit 60k steps).
	m := b.Build(b.Spec)
	if m == nil {
		t.Fatal("nil model")
	}
}

func TestPrepareDataWritesFiles(t *testing.T) {
	b, _ := Scaled("NT3", 40, 1500)
	dir := t.TempDir()
	train, test, err := b.PrepareData(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{train, test} {
		m, _, err := csvio.NewChunkedReader().Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if m.Cols != b.Spec.Features+1 {
			t.Fatalf("%s: %d cols, want %d", path, m.Cols, b.Spec.Features+1)
		}
	}
}

// runSmall runs a small NT3 end to end and returns the result.
func runSmall(t *testing.T, ranks int, cfg RunConfig) *RunResult {
	t.Helper()
	b, err := Scaled("NT3", 40, 1500) // 28 samples, 40 features
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 5); err != nil {
		t.Fatal(err)
	}
	cfg.Ranks = ranks
	cfg.DataDir = dir
	cfg.Seed = 11
	if cfg.TotalEpochs == 0 {
		cfg.TotalEpochs = 8
	}
	if cfg.Batch == 0 {
		cfg.Batch = 7
	}
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	res, err := b.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunSingleRankThreePhases(t *testing.T) {
	res := runSmall(t, 1, RunConfig{TotalEpochs: 40})
	r := res.Root
	if r.Epochs != 40 {
		t.Fatalf("epochs = %d", r.Epochs)
	}
	if r.LoadSeconds <= 0 || r.TrainSeconds <= 0 || r.TotalSeconds < r.LoadSeconds+r.TrainSeconds {
		t.Fatalf("phase accounting wrong: %+v", r)
	}
	if r.TrainAccuracy < 0.9 {
		t.Fatalf("NT3-small should train to high accuracy, got %v", r.TrainAccuracy)
	}
	if r.AllreduceCalls != 0 {
		t.Fatalf("single rank should not allreduce: %d", r.AllreduceCalls)
	}
}

func TestRunStrongScalingDividesEpochs(t *testing.T) {
	res := runSmall(t, 4, RunConfig{TotalEpochs: 8})
	for _, r := range res.Ranks {
		if r.Epochs != 2 {
			t.Fatalf("rank %d epochs = %d, want 2", r.Rank, r.Epochs)
		}
	}
}

func TestRunWeakScalingKeepsEpochs(t *testing.T) {
	res := runSmall(t, 3, RunConfig{TotalEpochs: 4, WeakScaling: true})
	for _, r := range res.Ranks {
		if r.Epochs != 4 {
			t.Fatalf("rank %d epochs = %d, want 4", r.Rank, r.Epochs)
		}
	}
}

func TestRunReplicasSynchronized(t *testing.T) {
	res := runSmall(t, 4, RunConfig{TotalEpochs: 8})
	first := res.Ranks[0].WeightsChecksum
	for _, r := range res.Ranks[1:] {
		if math.Abs(r.WeightsChecksum-first) > 1e-6*math.Abs(first) {
			t.Fatalf("rank %d weights diverged: %v vs %v", r.Rank, r.WeightsChecksum, first)
		}
	}
	if res.Ranks[0].AllreduceCalls == 0 {
		t.Fatal("multi-rank run should allreduce")
	}
}

func TestRunDistributedMatchesAccuracy(t *testing.T) {
	// Strong scaling with the same total epochs should preserve
	// learnability at this scale (8 epochs ÷ 2 ranks = 4 each, still
	// enough on the small problem).
	res := runSmall(t, 2, RunConfig{TotalEpochs: 40})
	if res.Root.TrainAccuracy < 0.9 {
		t.Fatalf("distributed accuracy = %v", res.Root.TrainAccuracy)
	}
	if res.Root.TestAccuracy < 0.7 {
		t.Fatalf("test accuracy = %v", res.Root.TestAccuracy)
	}
}

func TestRunWithTimelineAndChunkedLoader(t *testing.T) {
	tl := trace.NewTimeline()
	res := runSmall(t, 2, RunConfig{
		TotalEpochs: 4,
		Engine:      "chunked",
		Timeline:    tl,
	})
	if res.Root.LoadSeconds <= 0 {
		t.Fatal("no load time recorded")
	}
	if len(tl.Filter("mpi_broadcast")) != 2 {
		t.Fatalf("broadcast events = %d", len(tl.Filter("mpi_broadcast")))
	}
	if len(tl.FilterCat("allreduce")) == 0 {
		t.Fatal("no allreduce events")
	}
}

func TestRunScaleLR(t *testing.T) {
	// Just exercises the code path; numerical effect is covered in
	// horovod tests.
	res := runSmall(t, 2, RunConfig{TotalEpochs: 4, ScaleLR: true})
	if res.Root.Epochs != 2 {
		t.Fatalf("epochs = %d", res.Root.Epochs)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	b, _ := Default("NT3")
	if _, err := b.Run(RunConfig{Ranks: 0, TotalEpochs: 1}); err == nil {
		t.Fatal("0 ranks accepted")
	}
	if _, err := b.Run(RunConfig{Ranks: 1, TotalEpochs: 0}); err == nil {
		t.Fatal("0 epochs accepted")
	}
	if _, err := b.Run(RunConfig{Ranks: 1, TotalEpochs: 1, DataDir: t.TempDir()}); err == nil {
		t.Fatal("missing data files accepted")
	}
}

func TestAllFourBenchmarksTrainEndToEnd(t *testing.T) {
	for _, name := range pilot1 {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := Scaled(name, 60, 2000)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if _, _, err := b.PrepareData(dir, 2); err != nil {
				t.Fatal(err)
			}
			res, err := b.Run(RunConfig{
				Ranks: 2, TotalEpochs: 6, Batch: 5, DataDir: dir, Seed: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Root.FinalLoss <= 0 && name != "P1B1" {
				t.Fatalf("%s: degenerate loss %v", name, res.Root.FinalLoss)
			}
			if math.IsNaN(res.Root.FinalLoss) || math.IsInf(res.Root.FinalLoss, 0) {
				t.Fatalf("%s: loss exploded: %v", name, res.Root.FinalLoss)
			}
			// Replica sync for every benchmark.
			if math.Abs(res.Ranks[1].WeightsChecksum-res.Ranks[0].WeightsChecksum) >
				1e-6*(1+math.Abs(res.Ranks[0].WeightsChecksum)) {
				t.Fatalf("%s: replicas diverged", name)
			}
		})
	}
}

func TestP1B1LossDecreasesWithTraining(t *testing.T) {
	b, err := Scaled("P1B1", 60, 2000)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 2); err != nil {
		t.Fatal(err)
	}
	short, err := b.Run(RunConfig{Ranks: 1, TotalEpochs: 1, Batch: 5, DataDir: dir, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	long, err := b.Run(RunConfig{Ranks: 1, TotalEpochs: 20, Batch: 5, DataDir: dir, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if long.Root.FinalLoss >= short.Root.FinalLoss {
		t.Fatalf("autoencoder loss did not improve: %v -> %v", short.Root.FinalLoss, long.Root.FinalLoss)
	}
}

func TestCompareLoaders(t *testing.T) {
	b, _ := Scaled("NT3", 20, 400) // wider file so timings are nonzero
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 1); err != nil {
		t.Fatal(err)
	}
	times, err := b.CompareLoaders(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(csvio.Engines()); len(times) != want {
		t.Fatalf("want %d loader timings (one per registered engine), got %v", want, times)
	}
	for name, s := range times {
		if s < 0 {
			t.Fatalf("%s: negative time", name)
		}
	}
}
