package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"candle/internal/candle"
	"candle/internal/supervisor"
)

// supervisorCmd runs a CANDLE/Supervisor-style hyperparameter search
// over a benchmark: grid or random sampling of learning rate and batch
// size, trials dispatched to a worker pool (each trial is a real
// in-process training run on the scaled dataset), results stored in a
// JSON database.
//
//	candle supervisor -bench NT3 -strategy grid -workers 4
//	candle supervisor -bench P1B2 -strategy random -trials 12 -db trials.json
func supervisorCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		bench    = fs.String("bench", "NT3", benchUsage)
		strategy = fs.String("strategy", "grid", "grid, random, or halving")
		trials   = fs.Int("trials", 8, "trial count (random strategy)")
		workers  = fs.Int("workers", 4, "parallel trial workers")
		epochs   = fs.Int("epochs", 12, "epochs per trial")
		ranks    = fs.Int("ranks", 2, "Horovod ranks per trial")
		seed     = fs.Int64("seed", 1, "search + data seed")
		db       = fs.String("db", "", "JSON trial database (empty = in-memory)")
	)
	return func(stdout, stderr io.Writer) error {
		b, err := candle.Default(*bench)
		if err != nil {
			return err
		}
		dir, cleanup, err := prepareData(b, "", *seed)
		if err != nil {
			return err
		}
		defer cleanup()

		dims := []supervisor.Dimension{
			{Name: "lr", Values: []float64{0.005, 0.02, 0.05, 0.1}, Min: 0.001, Max: 0.2, Log: true},
			{Name: "batch", Values: []float64{5, 10, 20}, Min: 5, Max: 20},
		}
		var space []supervisor.Params
		switch *strategy {
		case "grid", "halving":
			space, err = supervisor.GridSpace(dims)
		case "random":
			space, err = supervisor.RandomSpace(dims, *trials, *seed)
		default:
			return fmt.Errorf("unknown strategy %q", *strategy)
		}
		if err != nil {
			return err
		}

		var store supervisor.Store
		if *db != "" {
			fs, err := supervisor.OpenFileStore(*db)
			if err != nil {
				return err
			}
			store = fs
		}
		sup := supervisor.New(*workers, store)
		// trial is one real training run at the given epoch budget.
		trial := func(p supervisor.Params, budget int) (supervisor.Result, error) {
			start := time.Now()
			res, err := b.Run(candle.RunConfig{
				Ranks: *ranks, TotalEpochs: budget,
				Batch: int(p["batch"]), LR: p["lr"],
				DataDir: dir, Seed: *seed,
			})
			if err != nil {
				return supervisor.Result{}, err
			}
			return supervisor.Result{
				Loss:     res.Root.TestLoss,
				Accuracy: res.Root.TestAccuracy,
				Seconds:  time.Since(start).Seconds(),
			}, nil
		}
		winner := func(best supervisor.Trial) {
			fmt.Fprintf(stdout, "best: lr=%.4f batch=%.0f (test loss %.4f, accuracy %.3f)\n",
				best.Params["lr"], best.Params["batch"], best.Result.Loss, best.Result.Accuracy)
		}

		fmt.Fprintf(stdout, "searching %d trials (%s) over %d workers for %s…\n", len(space), *strategy, *workers, *bench)
		if *strategy == "halving" {
			rungsRes, best, err := sup.RunHalving(space, trial, supervisor.HalvingConfig{InitialBudget: max(1, *epochs/4)})
			if err != nil {
				return err
			}
			for _, rung := range rungsRes {
				fmt.Fprintf(stdout, "  rung %d (budget %d epochs): %d trials, %d survivors\n",
					rung.Rung, rung.Budget, len(rung.Trials), len(rung.Survivors))
			}
			winner(best)
			return nil
		}
		results, err := sup.Run(space, func(p supervisor.Params) (supervisor.Result, error) { return trial(p, *epochs) })
		if err != nil {
			return err
		}
		for _, tr := range results {
			if tr.Err != "" {
				fmt.Fprintf(stdout, "  trial %2d lr=%.4f batch=%2.0f  FAILED: %s\n", tr.ID, tr.Params["lr"], tr.Params["batch"], tr.Err)
				continue
			}
			fmt.Fprintf(stdout, "  trial %2d lr=%.4f batch=%2.0f  test_loss=%.4f test_acc=%.3f (%.2fs)\n",
				tr.ID, tr.Params["lr"], tr.Params["batch"], tr.Result.Loss, tr.Result.Accuracy, tr.Result.Seconds)
		}
		best, ok := supervisor.Best(results, supervisor.MinLoss)
		if !ok {
			return fmt.Errorf("every trial failed")
		}
		winner(best)
		if *db != "" {
			fmt.Fprintf(stdout, "trial database: %s\n", *db)
		}
		return nil
	}
}
