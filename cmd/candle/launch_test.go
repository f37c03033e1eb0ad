package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"candle/internal/candle"
)

// smokeArgs is the pinned-seed 2-process × 2-rank NT3 command line the
// launch-smoke CI target runs; out is where the aggregated result goes.
func smokeArgs(t *testing.T, extra ...string) (args []string, out string) {
	out = filepath.Join(t.TempDir(), "launch.json")
	return append([]string{"launch", "-bench", "NT3", "-sample-div", "40", "-feature-div", "1500",
		"-procs", "2", "-ranks", "4", "-epochs", "8", "-batch", "7", "-lr", "0.05", "-seed", "11",
		"-loader", "naive", "-transport", "unix", "-timeout", "2m", "-out", out}, extra...), out
}

func launchAndRead(t *testing.T, extra ...string) *launchResult {
	t.Helper()
	args, out := smokeArgs(t, extra...)
	mustCandle(t, args...)
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res launchResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return &res
}

// TestLaunchSmokeBitIdentical is the acceptance run as real OS
// processes: 2 `candle run` workers × 2 ranks over unix sockets must
// match the 4-rank in-process run of the same pinned seed, weight
// checksum for weight checksum.
func TestLaunchSmokeBitIdentical(t *testing.T) {
	b, err := candle.Scaled("NT3", 40, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 11); err != nil {
		t.Fatal(err)
	}
	want, err := b.Run(candle.RunConfig{
		Ranks: 4, TotalEpochs: 8, Batch: 7, LR: 0.05, DataDir: dir, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}

	res := launchAndRead(t)
	if res.Generations != 1 || len(res.Failures) != 0 {
		t.Fatalf("clean launch reports %d generations, %d failures", res.Generations, len(res.Failures))
	}
	if len(res.Ranks) != 4 {
		t.Fatalf("launch returned %d ranks, want 4", len(res.Ranks))
	}
	for i, r := range res.Ranks {
		w := want.Ranks[i]
		if r.Rank != w.Rank {
			t.Fatalf("rank order mismatch at %d: %d vs %d", i, r.Rank, w.Rank)
		}
		if r.WeightsChecksum != w.WeightsChecksum {
			t.Fatalf("rank %d checksum %v != in-process %v (not bit-identical)", r.Rank, r.WeightsChecksum, w.WeightsChecksum)
		}
		if r.FinalLoss != w.FinalLoss || r.TrainAccuracy != w.TrainAccuracy {
			t.Fatalf("rank %d metrics (%v, %v) != (%v, %v)", r.Rank, r.FinalLoss, r.TrainAccuracy, w.FinalLoss, w.TrainAccuracy)
		}
	}
}

// TestLaunchProcessKillSurfacesRankFailure: SIGKILL one worker process
// mid-run without -elastic; the launcher must report a rank failure
// naming a rank the dead process hosted, fed by the survivors' typed
// *mpi.RankFailedError (their exit 75 and result file).
func TestLaunchProcessKillSurfacesRankFailure(t *testing.T) {
	args, _ := smokeArgs(t, "-epochs", "40", "-checkpoint-dir", t.TempDir(), "-chaos-kill", "1")
	code, stdout, stderr := candleCLI(args...)
	if code != 1 {
		t.Fatalf("launch with a killed worker and no -elastic: exit %d, want 1\noutput:\n%s", code, stdout)
	}
	if !strings.Contains(stderr, "rank 2 failed") && !strings.Contains(stderr, "rank 3 failed") {
		t.Fatalf("error %q does not name a rank of the killed proc", stderr)
	}
}

// TestLaunchElasticSurvivesProcessKill: same SIGKILL, but with
// -elastic the survivors respawn as generation 1, resume from the
// checkpoint, and finish in sync on the shrunken world.
func TestLaunchElasticSurvivesProcessKill(t *testing.T) {
	res := launchAndRead(t, "-epochs", "40", "-checkpoint-dir", t.TempDir(), "-chaos-kill", "1", "-elastic")
	if res.Generations != 2 || len(res.Failures) != 1 {
		t.Fatalf("generations = %d, failures = %d, want 2 and 1", res.Generations, len(res.Failures))
	}
	f := res.Failures[0]
	if f.Proc != 1 || f.WorldSize != 4 || f.Rank/2 != 1 {
		t.Fatalf("failure record %+v, want a rank of proc 1 on a 4-rank world", f)
	}
	if len(res.Ranks) != 2 || res.Ranks[0].Rank != 0 || res.Ranks[1].Rank != 1 {
		t.Fatalf("survivors = %+v, want ranks 0 and 1", res.Ranks)
	}
	if res.Ranks[0].WeightsChecksum != res.Ranks[1].WeightsChecksum {
		t.Fatal("survivors diverged after elastic recovery")
	}
	if res.Ranks[0].ResumedFromEpoch < 0 {
		t.Fatalf("generation 1 started fresh (resumed epoch %d), want a checkpoint resume", res.Ranks[0].ResumedFromEpoch)
	}
}

// TestLaunchInjectFaultElastic: the scripted in-process kill (the same
// -inject-fault candle run takes, forwarded to generation 0's workers)
// also drives the launcher's elastic loop — the fault fires inside the
// worker hosting the rank, crosses the socket links, and the next
// generation drops that proc.
func TestLaunchInjectFaultElastic(t *testing.T) {
	res := launchAndRead(t, "-checkpoint-dir", t.TempDir(), "-inject-fault", "3@8", "-elastic")
	if res.Generations != 2 || len(res.Failures) != 1 || res.Failures[0].Rank != 3 {
		t.Fatalf("generations = %d, failures = %+v, want gen 2 after rank 3 died", res.Generations, res.Failures)
	}
	if len(res.Ranks) != 2 {
		t.Fatalf("survivors = %d ranks, want 2", len(res.Ranks))
	}
}

// TestLaunchSigtermDrains: a real SIGTERM to a real launcher process
// mid-training kills the workers and exits promptly instead of hanging
// on the round.
func TestLaunchSigtermDrains(t *testing.T) {
	ckpt := t.TempDir()
	args, _ := smokeArgs(t, "-epochs", "4000", "-checkpoint-dir", ckpt) // far longer than the test
	c := startCandle(t, args...)
	// The first checkpoint means both workers are up and training.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if ents, _ := os.ReadDir(ckpt); len(ents) > 0 {
			break
		}
		select {
		case err := <-c.exited:
			t.Fatalf("launcher exited early: %v\n%s", err, c.stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after 60s\n%s", c.stderr.String())
		}
	}
	c.g.Signal("cli", syscall.SIGTERM)
	if code := c.waitExit(t, 30*time.Second); code != 1 {
		t.Fatalf("terminated launch exited %d, want 1\n%s", code, c.stderr.String())
	}
	if !strings.Contains(c.stderr.String(), "terminated by signal") {
		t.Fatalf("terminated launch said %q", c.stderr.String())
	}
}

// TestLaunchArgValidation covers the flag combinations launch rejects
// before spawning anything.
func TestLaunchArgValidation(t *testing.T) {
	for name, extra := range map[string][]string{
		"3 ranks over 2 procs":               {"-ranks", "3"},
		"inproc transport for multi-process": {"-transport", "inproc"},
		"chaos-kill outside the proc range":  {"-chaos-kill", "5"},
		"unknown benchmark":                  {"-bench", "NT99"},
	} {
		args, _ := smokeArgs(t, extra...)
		if code, _, _ := candleCLI(args...); code != 1 {
			t.Errorf("%s: exit %d, want 1", name, code)
		}
	}
}
