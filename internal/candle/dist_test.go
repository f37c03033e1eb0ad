package candle

import (
	"errors"
	"sync"
	"testing"
	"time"

	"candle/internal/launch"
	"candle/internal/mpi"
)

// prepareSmall builds the scaled NT3 benchmark and its data files once
// for a distributed test.
func prepareSmall(t *testing.T) (*Benchmark, string) {
	t.Helper()
	b, err := Scaled("NT3", 40, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 5); err != nil {
		t.Fatal(err)
	}
	return b, dir
}

func smallCfg(dir string) RunConfig {
	return RunConfig{
		Ranks: 4, TotalEpochs: 8, Batch: 7, LR: 0.05,
		DataDir: dir, Seed: 11, KeepWeights: true,
	}
}

// TestDistributedBitIdenticalToInProcess is the ISSUE acceptance check:
// a 2-process × 2-rank NT3 run over unix sockets (each "process" a full
// rendezvous worker going through Run's distributed path) produces
// bit-identical weights to the 4-rank in-process run with the same
// seed.
func TestDistributedBitIdenticalToInProcess(t *testing.T) {
	b, dir := prepareSmall(t)
	want, err := b.Run(smallCfg(dir))
	if err != nil {
		t.Fatal(err)
	}

	srv, err := launch.Serve(launch.ServerConfig{Network: "unix", Procs: 2, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	results := make([]*RunResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := smallCfg(dir)
			cfg.Transport = "unix"
			cfg.Rendezvous = srv.Addr()
			cfg.LocalRanks = 2
			cfg.ProcIndex = p
			results[p], errs[p] = b.Run(cfg)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", p, err)
		}
	}

	// Stitch the two workers' local results into one world view.
	var got []RankResult
	for _, res := range results {
		if len(res.Ranks) != 2 {
			t.Fatalf("worker returned %d local ranks, want 2", len(res.Ranks))
		}
		got = append(got, res.Ranks...)
	}
	if len(got) != len(want.Ranks) {
		t.Fatalf("got %d ranks, want %d", len(got), len(want.Ranks))
	}
	for i, r := range got {
		w := want.Ranks[i]
		if r.Rank != w.Rank {
			t.Fatalf("rank order mismatch at %d: %d vs %d", i, r.Rank, w.Rank)
		}
		if r.WeightsChecksum != w.WeightsChecksum {
			t.Fatalf("rank %d checksum %v != in-process %v", r.Rank, r.WeightsChecksum, w.WeightsChecksum)
		}
		if len(r.FinalWeights) != len(w.FinalWeights) {
			t.Fatalf("rank %d weight count %d != %d", r.Rank, len(r.FinalWeights), len(w.FinalWeights))
		}
		for j := range r.FinalWeights {
			if r.FinalWeights[j] != w.FinalWeights[j] {
				t.Fatalf("rank %d weight %d: %v != %v (not bit-identical)", r.Rank, j, r.FinalWeights[j], w.FinalWeights[j])
			}
		}
		if r.FinalLoss != w.FinalLoss || r.TrainAccuracy != w.TrainAccuracy {
			t.Fatalf("rank %d metrics (%v, %v) != (%v, %v)", r.Rank, r.FinalLoss, r.TrainAccuracy, w.FinalLoss, w.TrainAccuracy)
		}
	}
}

// TestRunMultiProcMatchesInProcess sweeps RunMultiProc (the scenario
// harness's entry point) across transports and splits against the
// plain in-process run.
func TestRunMultiProcMatchesInProcess(t *testing.T) {
	b, dir := prepareSmall(t)
	want, err := b.Run(smallCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		transport string
		procs     int
	}{
		{"inproc", 2},
		{"unix", 2},
		{"unix", 4},
	} {
		cfg := smallCfg(dir)
		cfg.Transport = tc.transport
		got, err := b.RunMultiProc(cfg, tc.procs)
		if err != nil {
			t.Fatalf("%s/%d procs: %v", tc.transport, tc.procs, err)
		}
		if len(got.Ranks) != len(want.Ranks) {
			t.Fatalf("%s/%d procs: %d ranks, want %d", tc.transport, tc.procs, len(got.Ranks), len(want.Ranks))
		}
		for i, r := range got.Ranks {
			w := want.Ranks[i]
			if r.Rank != w.Rank || r.WeightsChecksum != w.WeightsChecksum {
				t.Fatalf("%s/%d procs: rank %d checksum %v != %v", tc.transport, tc.procs, r.Rank, r.WeightsChecksum, w.WeightsChecksum)
			}
		}
	}
}

// TestMultiProcKillSurfacesTypedError: killing a rank hosted by the
// second session propagates across the socket links and surfaces as
// one *mpi.RankFailedError naming the killed rank — the same contract
// as the in-process world.
func TestMultiProcKillSurfacesTypedError(t *testing.T) {
	b, dir := prepareSmall(t)
	const killed = 3
	cfg := smallCfg(dir)
	cfg.Transport = "unix"
	cfg.KeepWeights = false
	cfg.Faults = mpi.NewFaultPlan().KillAt(killed, 2)
	_, err := runWithDeadline(t, 60*time.Second, func() (*RunResult, error) {
		return b.RunMultiProc(cfg, 2)
	})
	var rf *mpi.RankFailedError
	if !errors.As(err, &rf) || rf.Rank != killed {
		t.Fatalf("RunMultiProc error = %v, want RankFailedError naming rank %d", err, killed)
	}
	if !errors.Is(err, mpi.ErrKilled) {
		t.Fatalf("error %v does not wrap ErrKilled", err)
	}
}

// TestMultiProcElasticDropsFailedProc: with Elastic, a killed rank
// costs its whole session — the survivors rendezvous again as the next
// generation, resume from the checkpoint, and finish in sync.
func TestMultiProcElasticDropsFailedProc(t *testing.T) {
	b, dir := prepareSmall(t)
	cfg := smallCfg(dir)
	cfg.Transport = "unix"
	cfg.KeepWeights = false
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 1
	// Step 8 lands in epoch 1, after the epoch-0 checkpoint (see
	// TestElasticRecoveryCompletesOnShrunkenWorld for the schedule).
	cfg.Faults = mpi.NewFaultPlan().KillAt(3, 8)
	cfg.Elastic = true
	res, err := runWithDeadline(t, 120*time.Second, func() (*RunResult, error) {
		return b.RunMultiProc(cfg, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 || len(res.Failures) != 1 {
		t.Fatalf("restarts = %d, failures = %d, want 1 and 1", res.Restarts, len(res.Failures))
	}
	if f := res.Failures[0]; f.Rank != 3 || f.WorldSize != 4 || !errors.Is(f.Err, mpi.ErrKilled) {
		t.Fatalf("failure record = %+v", f)
	}
	// The failed rank's whole proc (ranks 2,3) was dropped.
	if len(res.Ranks) != 2 {
		t.Fatalf("completed on %d ranks, want 2 survivors", len(res.Ranks))
	}
	if res.Root.ResumedFromEpoch != 0 {
		t.Fatalf("resumed from epoch %d, want 0", res.Root.ResumedFromEpoch)
	}
	for _, r := range res.Ranks[1:] {
		if r.WeightsChecksum != res.Root.WeightsChecksum {
			t.Fatalf("rank %d diverged after recovery", r.Rank)
		}
	}
}

// TestDistributedValidation covers the config combinations Validate
// and RunMultiProc must reject before any socket work happens.
func TestDistributedValidation(t *testing.T) {
	bad := []RunConfig{
		{Transport: "tcp"},                                          // socket transport, no rendezvous
		{Transport: "no-such-transport"},                            // unknown transport
		{Rendezvous: "x"},                                           // rendezvous without local ranks
		{Rendezvous: "x", LocalRanks: 8, Ranks: 4},                  // local > world
		{Rendezvous: "x", LocalRanks: 2, ProcIndex: -1},             // negative proc
		{Rendezvous: "x", LocalRanks: 2, Elastic: true},             // launcher owns elasticity
		{LocalRanks: 2},                                             // per-proc field without rendezvous
		{ProcIndex: 1},                                              // per-proc field without rendezvous
		{Generation: 1},                                             // per-proc field without rendezvous
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted a nonsense combination", i, cfg)
		}
	}
	if err := (&RunConfig{Transport: "inproc"}).Validate(); err != nil {
		t.Errorf("inproc without rendezvous rejected: %v", err)
	}

	b, _ := Scaled("NT3", 40, 1500)
	if _, err := b.RunMultiProc(RunConfig{Ranks: 3, TotalEpochs: 2}, 2); err == nil {
		t.Error("RunMultiProc accepted 3 ranks over 2 procs")
	}
	if _, err := b.RunMultiProc(RunConfig{Ranks: 4, TotalEpochs: 2, Rendezvous: "x", LocalRanks: 2}, 2); err == nil {
		t.Error("RunMultiProc accepted a caller-supplied rendezvous")
	}
	if _, err := b.RunMultiProc(RunConfig{Ranks: 4, TotalEpochs: 2}, 0); err == nil {
		t.Error("RunMultiProc accepted zero procs")
	}
}
