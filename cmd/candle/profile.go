package main

import (
	"flag"
	"fmt"
	"io"

	"candle/internal/candle"
	"candle/internal/csvio"
	"candle/internal/data"
	"candle/internal/nn"
)

// profileCmd produces an NVProf-style per-layer forward/backward
// timing profile of a benchmark's model — the per-op view the paper
// plans to use "to identify the other performance bottlenecks" — and
// under it what the layers leave out of a training step: the
// optimizer's update and the gradient clear, each with its share.
//
//	candle profile -bench NT3 -batch 20 -reps 10
func profileCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		bench  = fs.String("bench", "NT3", benchUsage)
		batch  = fs.Int("batch", 0, "batch size (0 = benchmark default)")
		reps   = fs.Int("reps", 10, "forward+backward repetitions")
		seed   = fs.Int64("seed", 1, "data/init seed")
		engine = fs.String("engine", "", "profile phase-1 loading with this CSV engine instead of the model layers (see -engine list)")
	)
	return func(stdout, stderr io.Writer) error {
		switch *engine {
		case "":
			return runProfile(stdout, *bench, *batch, *reps, *seed)
		case "list":
			for _, name := range csvio.Engines() {
				fmt.Fprintln(stdout, name)
			}
			return nil
		default:
			return runProfileLoad(stdout, *bench, *engine, *seed)
		}
	}
}

// runProfileLoad profiles phase 1 only: generate the benchmark's CSVs, read
// the train file twice with the named engine, and print each pass's
// stats — the second pass shows the sharded engine's warm cache.
func runProfileLoad(stdout io.Writer, bench, engine string, seed int64) error {
	b, err := candle.Default(bench)
	if err != nil {
		return err
	}
	dir, cleanup, err := prepareData(b, "", seed)
	if err != nil {
		return err
	}
	defer cleanup()
	trainPath, _ := b.Files(dir)
	for pass := 1; pass <= 2; pass++ {
		r, err := csvio.ByName(engine)
		if err != nil {
			return err
		}
		m, stats, err := r.Read(trainPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "pass %d: %s: %dx%d, %d bytes read, %d chunks, %.4f s",
			pass, r.Name(), m.Rows, m.Cols, stats.BytesRead, stats.Chunks, stats.Seconds)
		if stats.CacheHit {
			fmt.Fprint(stdout, "  [cache hit]")
		}
		if stats.SerialFallback {
			fmt.Fprint(stdout, "  [serial fallback]")
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func runProfile(stdout io.Writer, bench string, batch, reps int, seed int64) error {
	b, err := candle.Default(bench)
	if err != nil {
		return err
	}
	if batch <= 0 {
		batch = b.Cal.DefaultBatch
	}
	if batch > b.Spec.TrainSamples {
		batch = b.Spec.TrainSamples
	}
	ds, err := data.Generate(b.Spec, seed)
	if err != nil {
		return err
	}
	model := b.Build(b.Spec)
	if err := model.Compile(b.Spec.Features, b.Loss, nn.NewOptimizer(b.Cal.Optimizer, 0.01), seed); err != nil {
		return err
	}
	x := ds.X.RowSlice(0, batch)
	y := ds.Y.RowSlice(0, batch)
	timings, err := nn.ProfileLayers(model, b.Loss, x, y, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, model.Summary())
	fmt.Fprintf(stdout, "per-layer timings, batch %d, %d reps:\n\n", batch, reps)
	fmt.Fprint(stdout, nn.FormatLayerProfile(timings))
	step, err := nn.ProfileStep(model, x, y, reps)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwhole training steps (%s), %d reps:\n\n", model.Optimizer().Name(), reps)
	fmt.Fprint(stdout, nn.FormatStepProfile(step))
	return nil
}
