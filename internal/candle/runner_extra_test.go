package candle

import (
	"math"
	"os"
	"testing"

	"candle/internal/checkpoint"
)

func TestRunWithCheckpointing(t *testing.T) {
	b, err := Scaled("NT3", 40, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 5); err != nil {
		t.Fatal(err)
	}
	ckptDir := t.TempDir()
	res, err := b.Run(RunConfig{
		Ranks: 2, TotalEpochs: 8, Batch: 7, LR: 0.05, DataDir: dir, Seed: 11,
		CheckpointDir: ckptDir, CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Root.CheckpointsSaved != 2 { // 4 epochs/rank, every 2 → epochs 1, 3
		t.Fatalf("saves = %d, want 2", res.Root.CheckpointsSaved)
	}
	if res.Root.ResumedFromEpoch != -1 {
		t.Fatalf("fresh run claims resume from %d", res.Root.ResumedFromEpoch)
	}
	// Only rank 0 writes.
	for _, r := range res.Ranks[1:] {
		if r.CheckpointsSaved != 0 {
			t.Fatalf("rank %d saved checkpoints", r.Rank)
		}
	}
	snap, err := checkpoint.Latest(ckptDir, b.Spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 3 {
		t.Fatalf("latest checkpoint epoch = %d", snap.Epoch)
	}

	// Resume: a second run restores from the snapshot.
	res2, err := b.Run(RunConfig{
		Ranks: 2, TotalEpochs: 8, Batch: 7, LR: 0.05, DataDir: dir, Seed: 12,
		CheckpointDir: ckptDir, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Root.ResumedFromEpoch != 3 {
		t.Fatalf("resumed from %d, want 3", res2.Root.ResumedFromEpoch)
	}
	// Resumed + continued training should reach high accuracy.
	if res2.Root.TrainAccuracy < 0.9 {
		t.Fatalf("resumed accuracy = %v", res2.Root.TrainAccuracy)
	}
}

func TestRunResumeWithEmptyDirStartsFresh(t *testing.T) {
	b, err := Scaled("NT3", 40, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 5); err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(RunConfig{
		Ranks: 1, TotalEpochs: 2, Batch: 7, DataDir: dir, Seed: 1,
		CheckpointDir: t.TempDir(), Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Root.ResumedFromEpoch != -1 {
		t.Fatal("resume from empty dir should start fresh")
	}
}

func TestRunParameterServerMode(t *testing.T) {
	b, err := Scaled("NT3", 40, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 5); err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(RunConfig{
		Ranks: 3, TotalEpochs: 24, Batch: 7, LR: 0.05, DataDir: dir, Seed: 11,
		ParameterServer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replicas synchronized through the PS too.
	first := res.Ranks[0].WeightsChecksum
	for _, r := range res.Ranks[1:] {
		if math.Abs(r.WeightsChecksum-first) > 1e-6*(1+math.Abs(first)) {
			t.Fatalf("rank %d diverged under parameter server", r.Rank)
		}
	}
	if res.Root.TrainAccuracy < 0.9 {
		t.Fatalf("PS training accuracy = %v", res.Root.TrainAccuracy)
	}
	if res.Root.AllreduceCalls != 0 {
		t.Fatal("PS mode should not report allreduce calls")
	}
}

func TestMain(m *testing.M) { os.Exit(m.Run()) }

func TestTrackEpochsRecordsTrajectory(t *testing.T) {
	res := runSmall(t, 2, RunConfig{TotalEpochs: 8, TrackEpochs: true})
	r := res.Root
	// 8 total epochs / 2 ranks = 4 per rank; one trajectory point each.
	if len(r.EpochEndSeconds) != 4 || len(r.EpochTestAcc) != 4 || len(r.EpochTestLoss) != 4 {
		t.Fatalf("trajectory lengths: %d/%d/%d, want 4",
			len(r.EpochEndSeconds), len(r.EpochTestAcc), len(r.EpochTestLoss))
	}
	last := 0.0
	for i, ts := range r.EpochEndSeconds {
		if ts <= last {
			t.Fatalf("epoch %d clock %v not increasing (prev %v)", i, ts, last)
		}
		last = ts
		if r.EpochTestAcc[i] < 0 || r.EpochTestAcc[i] > 1 {
			t.Fatalf("epoch %d accuracy %v out of range", i, r.EpochTestAcc[i])
		}
		if math.IsNaN(r.EpochTestLoss[i]) {
			t.Fatalf("epoch %d loss NaN", i)
		}
	}
	// Non-root ranks never track.
	for _, rr := range res.Ranks[1:] {
		if len(rr.EpochEndSeconds) != 0 {
			t.Fatalf("rank %d recorded a trajectory", rr.Rank)
		}
	}
	// Off by default.
	res2 := runSmall(t, 1, RunConfig{TotalEpochs: 2})
	if len(res2.Root.EpochEndSeconds) != 0 {
		t.Fatal("trajectory recorded without TrackEpochs")
	}
}

func TestTrackEpochsDeterministicAccuracies(t *testing.T) {
	// Twin runs of the same seed: wall-clock timestamps differ, but the
	// measured accuracy/loss trajectories must be bit-identical — the
	// property the benchmark's time-to-target repeats rest on.
	a := runSmall(t, 2, RunConfig{TotalEpochs: 8, TrackEpochs: true})
	b := runSmall(t, 2, RunConfig{TotalEpochs: 8, TrackEpochs: true})
	if len(a.Root.EpochTestAcc) == 0 {
		t.Fatal("no trajectory")
	}
	for i := range a.Root.EpochTestAcc {
		if a.Root.EpochTestAcc[i] != b.Root.EpochTestAcc[i] {
			t.Fatalf("epoch %d accuracy differs: %v vs %v", i, a.Root.EpochTestAcc[i], b.Root.EpochTestAcc[i])
		}
		if a.Root.EpochTestLoss[i] != b.Root.EpochTestLoss[i] {
			t.Fatalf("epoch %d loss differs: %v vs %v", i, a.Root.EpochTestLoss[i], b.Root.EpochTestLoss[i])
		}
	}
	if a.Root.WeightsChecksum != b.Root.WeightsChecksum {
		t.Fatal("twin runs diverged")
	}
}
