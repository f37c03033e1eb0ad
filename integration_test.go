package candlebench

// Integration tests: cross-package flows exercised end to end — the
// full three-phase pipeline against every loader engine, timeline
// files written and parsed back, the advisor driven by the simulator,
// and the supervisor driving real training runs.

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"candle/internal/advisor"
	"candle/internal/candle"
	"candle/internal/checkpoint"
	"candle/internal/core"
	"candle/internal/csvio"
	"candle/internal/hpc"
	"candle/internal/sim"
	"candle/internal/supervisor"
	"candle/internal/trace"
)

func TestEndToEndAllLoadersProduceSameTraining(t *testing.T) {
	bench, err := candle.Scaled("NT3", 40, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := bench.PrepareData(dir, 21); err != nil {
		t.Fatal(err)
	}
	var checksums []float64
	for _, engine := range csvio.Engines() {
		res, err := bench.Run(candle.RunConfig{
			Ranks: 2, TotalEpochs: 8, Batch: 7, LR: 0.05,
			Engine: engine, DataDir: dir, Seed: 21,
		})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		checksums = append(checksums, res.Root.WeightsChecksum)
	}
	// Same data + same seed ⇒ identical training regardless of the
	// loading engine (the optimization must not change results).
	for i := 1; i < len(checksums); i++ {
		if math.Abs(checksums[i]-checksums[0]) > 1e-9*(1+math.Abs(checksums[0])) {
			t.Fatalf("loader changed training outcome: %v", checksums)
		}
	}
}

func TestEndToEndTimelineFileRoundTrip(t *testing.T) {
	tl, r, err := core.TimelineFor("NT3", 384, sim.Strong, 0, sim.LoaderNaive)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig7b.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tl.Len() {
		t.Fatalf("round trip lost events: %d vs %d", back.Len(), tl.Len())
	}
	start, end, ok := back.Span("broadcast")
	if !ok || math.Abs((end-start)-r.BroadcastTime) > 0.5 {
		t.Fatalf("broadcast span %v..%v vs %v", start, end, r.BroadcastTime)
	}
}

func TestEndToEndCorruptCSVFailsCleanly(t *testing.T) {
	bench, err := candle.Scaled("NT3", 40, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	trainPath, _, err := bench.PrepareData(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the training file mid-way.
	raw, err := os.ReadFile(trainPath)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(raw), ",", ",GARBAGE,", 1)
	if err := os.WriteFile(trainPath, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, engine := range csvio.Engines() {
		_, err := bench.Run(candle.RunConfig{
			Ranks: 2, TotalEpochs: 2, Batch: 7, Engine: engine, DataDir: dir, Seed: 1,
		})
		if err == nil {
			t.Fatalf("%s: corrupt CSV accepted", engine)
		}
	}
}

func TestEndToEndAdvisorAgainstSimulator(t *testing.T) {
	// The advisor's recommended plan, re-run through the simulator,
	// must reproduce the promised time/energy exactly.
	best, _, err := advisor.Recommend(advisor.Request{
		Benchmark: "NT3", Machine: hpc.Summit(),
		Objective: advisor.MinTime, MinAccuracy: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.BenchByName("NT3")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := sim.LoaderByName(best.Engine)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(sim.Config{
		Machine: hpc.Summit(), Bench: b, Ranks: best.Workers,
		Scaling: sim.Strong, Batch: best.Batch, Loader: loader,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.TotalTime-best.TimeS) > 1e-9 {
		t.Fatalf("advisor time %v != simulator %v", best.TimeS, r.TotalTime)
	}
	if math.Abs(r.TotalEnergyJ-best.EnergyJ) > 1e-6 {
		t.Fatalf("advisor energy %v != simulator %v", best.EnergyJ, r.TotalEnergyJ)
	}
}

func TestEndToEndSupervisorOverRealTraining(t *testing.T) {
	bench, err := candle.Scaled("NT3", 56, 2000)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := bench.PrepareData(dir, 9); err != nil {
		t.Fatal(err)
	}
	space, err := supervisor.GridSpace([]supervisor.Dimension{
		{Name: "lr", Values: []float64{0.005, 0.08}},
		{Name: "batch", Values: []float64{4, 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := supervisor.OpenFileStore(filepath.Join(dir, "db.json"))
	if err != nil {
		t.Fatal(err)
	}
	sup := supervisor.New(2, store)
	trials, err := sup.Run(space, func(p supervisor.Params) (supervisor.Result, error) {
		start := time.Now()
		res, err := bench.Run(candle.RunConfig{
			Ranks: 2, TotalEpochs: 10, Batch: int(p["batch"]), LR: p["lr"],
			DataDir: dir, Seed: 9,
		})
		if err != nil {
			return supervisor.Result{}, err
		}
		return supervisor.Result{Loss: res.Root.TestLoss, Accuracy: res.Root.TestAccuracy,
			Seconds: time.Since(start).Seconds()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 4 {
		t.Fatalf("trials = %d", len(trials))
	}
	best, ok := supervisor.Best(trials, supervisor.MinLoss)
	if !ok {
		t.Fatal("no successful trial")
	}
	// The higher LR learns the scaled dataset better in 10 epochs.
	if best.Params["lr"] != 0.08 {
		t.Fatalf("unexpected best lr %v (trials: %+v)", best.Params["lr"], trials)
	}
	if store.Len() != 4 {
		t.Fatalf("db holds %d trials", store.Len())
	}
}

func TestEndToEndCheckpointCrashRestart(t *testing.T) {
	// Simulate a crash-restart cycle: run half the epochs with
	// checkpointing, "crash", resume into the second half, and verify
	// the final model quality matches an uninterrupted run's ballpark.
	bench, err := candle.Scaled("NT3", 40, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := bench.PrepareData(dir, 31); err != nil {
		t.Fatal(err)
	}
	ckpt := t.TempDir()
	if _, err := bench.Run(candle.RunConfig{
		Ranks: 2, TotalEpochs: 16, Batch: 7, LR: 0.05, DataDir: dir, Seed: 31,
		CheckpointDir: ckpt, CheckpointEvery: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Latest(ckpt, bench.Spec.Name); err != nil {
		t.Fatal(err)
	}
	resumed, err := bench.Run(candle.RunConfig{
		Ranks: 2, TotalEpochs: 16, Batch: 7, LR: 0.05, DataDir: dir, Seed: 32,
		CheckpointDir: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Root.ResumedFromEpoch < 0 {
		t.Fatal("did not resume")
	}
	if resumed.Root.TrainAccuracy < 0.95 {
		t.Fatalf("post-restart accuracy %v", resumed.Root.TrainAccuracy)
	}
}

func TestEndToEndOOMIsTyped(t *testing.T) {
	b, err := sim.BenchByName("P1B3")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(sim.Config{
		Machine: hpc.Summit(), Bench: b, Ranks: 384, Scaling: sim.Strong,
		Epochs: 1, Batch: 38400, Loader: sim.LoaderNaive,
	})
	if !errors.Is(err, sim.ErrOutOfMemory) {
		t.Fatalf("want typed OOM, got %v", err)
	}
}

func TestEndToEndEveryExperimentRendersCSV(t *testing.T) {
	tables, err := core.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		csv := tb.CSV()
		if !strings.Contains(csv, "\n") {
			t.Fatalf("%s: degenerate CSV", tb.ID)
		}
		lines := strings.Split(strings.TrimSpace(csv), "\n")
		header := strings.Count(lines[0], ",")
		for _, ln := range lines[1:] {
			if strings.HasPrefix(ln, "#") {
				continue
			}
			if strings.Count(ln, ",") < header {
				t.Fatalf("%s: ragged CSV line %q", tb.ID, ln)
			}
		}
	}
}
