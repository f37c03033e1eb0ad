package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"candle/internal/candle"
	"candle/internal/checkpoint"
	"candle/internal/mpi"
)

// The -bench help texts. Subcommands that build a real model resolve
// the name through candle.Scaled, which also knows the Pilot2/Pilot3
// models; the simulator (run -mode sim, advise) only has the paper's
// four calibrations.
const (
	benchUsage    = "benchmark: NT3, P1B1, P1B2, P1B3, P2B1, P3B1"
	simBenchUsage = "benchmark: NT3, P1B1, P1B2, P1B3"
)

// benchFlags is the benchmark-selection flag group of every subcommand
// that trains or serves a real model. As for every flag group here, the
// divisors' values at register time are the flags' defaults.
type benchFlags struct {
	Bench                 string
	SampleDiv, FeatureDiv int
}

func (b *benchFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&b.Bench, "bench", "NT3", benchUsage)
	fs.IntVar(&b.SampleDiv, "sample-div", b.SampleDiv, "dataset sample divisor (1 = the paper's full shape)")
	fs.IntVar(&b.FeatureDiv, "feature-div", b.FeatureDiv, "dataset feature divisor (1 = the paper's full shape)")
}

func (b *benchFlags) benchmark() (*candle.Benchmark, error) {
	return candle.Scaled(b.Bench, b.SampleDiv, b.FeatureDiv)
}

// trainFlags is the training flag group `run` and `launch` share: one
// candle.RunConfig's worth of settings. launch forwards it verbatim to
// the `candle run` workers it spawns.
type trainFlags struct {
	benchFlags
	Ranks, Epochs, Batch       int
	LR                         float64
	Seed                       int64
	Loader, CacheDir, DataDir  string
	Weak, ScaleLR, PS, Overlap bool
	DType, Transport           string
	CkptDir, Fault             string
	Elastic                    bool
}

// newTrainFlags returns the group with `run`'s defaults.
func newTrainFlags() trainFlags {
	return trainFlags{
		benchFlags: benchFlags{SampleDiv: candle.DefaultSampleDiv, FeatureDiv: candle.DefaultFeatureDiv},
		Ranks:      6, Seed: 42, Loader: "naive", DType: "f64",
	}
}

func (t *trainFlags) register(fs *flag.FlagSet) {
	t.benchFlags.register(fs)
	fs.IntVar(&t.Ranks, "ranks", t.Ranks, "workers: GPUs on Summit, nodes on Theta, ranks in real mode (the total world size when distributed)")
	fs.IntVar(&t.Epochs, "epochs", t.Epochs, "total epochs (strong) or per-rank (weak); 0 = benchmark default")
	fs.IntVar(&t.Batch, "batch", t.Batch, "batch size; 0 = benchmark default")
	fs.Float64Var(&t.LR, "lr", t.LR, "learning rate (real mode); 0 = benchmark default")
	fs.Int64Var(&t.Seed, "seed", t.Seed, "data/init seed (real mode)")
	fs.StringVar(&t.Loader, "loader", t.Loader, "data engine: naive, chunked, parallel (sim + real), or any registered engine such as sharded (real)")
	fs.StringVar(&t.CacheDir, "cache-dir", t.CacheDir, "binary cache directory for the sharded engine (real mode); empty = alongside the CSVs")
	fs.StringVar(&t.DataDir, "data-dir", t.DataDir, "CSV directory (real mode): written by the round's host, only read by a joining worker; empty = temp dir")
	fs.BoolVar(&t.Weak, "weak", t.Weak, "weak scaling (epochs per rank constant)")
	fs.BoolVar(&t.ScaleLR, "scale-lr", t.ScaleLR, "linear learning-rate scaling (real mode)")
	fs.BoolVar(&t.PS, "ps", t.PS, "use the parameter-server baseline instead of allreduce (real mode)")
	fs.BoolVar(&t.Overlap, "overlap", t.Overlap, "overlap gradient allreduce with backward compute (real mode)")
	fs.StringVar(&t.DType, "dtype", t.DType, "compute precision: f32 (packed float32 kernels, fused layers) or f64 (real mode)")
	fs.StringVar(&t.Transport, "transport", t.Transport, "rank link layer: inproc, unix, or tcp (real mode; empty = inproc)")
	fs.StringVar(&t.CkptDir, "checkpoint-dir", t.CkptDir, "checkpoint directory (real mode); elastic recovery resumes from it")
	fs.StringVar(&t.Fault, "inject-fault", t.Fault, "kill a rank at a collective step, as rank@step, e.g. 2@5 (real mode)")
	fs.BoolVar(&t.Elastic, "elastic", t.Elastic, "recover from a rank (or worker process) failure by restarting on a shrunken world (real mode)")
}

// serveFlags is the flag group that describes one serving engine,
// shared by `serve` and `fleet`; fleet forwards it verbatim to the
// `candle serve` replicas it spawns.
type serveFlags struct {
	benchFlags
	Dir, DType      string
	MaxBatch, Queue int
	MaxWait, SLOP99 time.Duration
}

func newServeFlags() serveFlags {
	return serveFlags{
		benchFlags: benchFlags{SampleDiv: 20, FeatureDiv: 1200},
		MaxBatch:   32, MaxWait: 2 * time.Millisecond, Queue: 256,
	}
}

func (s *serveFlags) register(fs *flag.FlagSet) {
	s.benchFlags.register(fs)
	fs.StringVar(&s.Dir, "dir", s.Dir, "checkpoint directory to load from and watch (required)")
	fs.StringVar(&s.DType, "dtype", s.DType, "serving precision: f32, f64, or empty to follow the checkpoint's dtype")
	fs.IntVar(&s.MaxBatch, "max-batch", s.MaxBatch, "max requests one engine coalesces into one forward (1 = unbatched)")
	fs.DurationVar(&s.MaxWait, "max-wait", s.MaxWait, "max wait for stragglers after a batch's first request")
	fs.IntVar(&s.Queue, "queue", s.Queue, "admission queue depth of one engine; beyond it requests get 429")
	fs.DurationVar(&s.SLOP99, "slo-p99", s.SLOP99, "p99 latency target; replaces fixed -max-batch/-max-wait with the adaptive SLO controller (they become its ceilings)")
}

// bootstrapFlags is the train-a-first-checkpoint pair `serve` and
// `fleet` share.
type bootstrapFlags struct {
	Bootstrap       bool
	BootstrapEpochs int
}

func (b *bootstrapFlags) register(fs *flag.FlagSet) {
	fs.BoolVar(&b.Bootstrap, "bootstrap", false, "if -dir has no checkpoint, train briefly and write one first")
	fs.IntVar(&b.BootstrapEpochs, "bootstrap-epochs", 4, "epochs for -bootstrap training")
}

// bootstrap trains the benchmark briefly and writes checkpoints into
// dir, so a fresh directory becomes servable without a separate
// training run. A directory that already has a loadable checkpoint is
// left alone.
func bootstrap(b *candle.Benchmark, dir, dtype string, epochs int) error {
	if _, err := checkpoint.Latest(dir, b.Spec.Name); err == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dataDir, cleanup, err := prepareData(b, "", 7)
	if err != nil {
		return err
	}
	defer cleanup()
	log.Printf("bootstrap: training %s for %d epochs -> %s", b.Spec.Name, epochs, dir)
	_, err = b.Run(candle.RunConfig{
		Ranks:           1,
		TotalEpochs:     epochs,
		Batch:           7,
		DType:           dtype, // checkpoints record this precision
		LR:              0.05,  // scaled datasets want a larger step than Table 1's
		Engine:          "chunked",
		DataDir:         dataDir,
		Seed:            7,
		CheckpointDir:   dir,
		CheckpointEvery: 1,
	})
	return err
}

// prepareData writes the benchmark's generated CSVs into dir, or into
// a fresh temp directory when dir is empty; cleanup removes what it
// created.
func prepareData(b *candle.Benchmark, dir string, seed int64) (string, func(), error) {
	cleanup := func() {}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "candle-data-")
		if err != nil {
			return "", nil, err
		}
		dir, cleanup = tmp, func() { os.RemoveAll(tmp) }
	}
	if _, _, err := b.PrepareData(dir, seed); err != nil {
		cleanup()
		return "", nil, err
	}
	return dir, cleanup, nil
}

// forwarder snapshots the flags registered on fs so far — launch and
// fleet call it right after registering the group their children share
// — and returns a function that renders those flags' values, as they
// are when it is called, as child argv.
func forwarder(fs *flag.FlagSet) func() []string {
	var flags []*flag.Flag
	fs.VisitAll(func(f *flag.Flag) { flags = append(flags, f) })
	return func() []string {
		args := make([]string, len(flags))
		for i, f := range flags {
			args[i] = "-" + f.Name + "=" + f.Value.String()
		}
		return args
	}
}

// parseFault parses the -inject-fault syntax "rank@step" into a plan
// that kills that rank at that collective step; "" is no plan.
func parseFault(s string) (*mpi.FaultPlan, error) {
	if s == "" {
		return nil, nil
	}
	at := strings.SplitN(s, "@", 2)
	if len(at) != 2 {
		return nil, fmt.Errorf("bad -inject-fault %q, want rank@step (e.g. 2@5)", s)
	}
	rank, err := strconv.Atoi(at[0])
	if err != nil || rank < 0 {
		return nil, fmt.Errorf("bad -inject-fault rank %q", at[0])
	}
	step, err := strconv.Atoi(at[1])
	if err != nil || step < 0 {
		return nil, fmt.Errorf("bad -inject-fault step %q", at[1])
	}
	return mpi.NewFaultPlan().KillAt(rank, step), nil
}

// notifyTerminate installs the SIGINT/SIGTERM handler the long-running
// subcommands drain on. Install it before announcing readiness, so a
// signal arriving the instant the process looks ready still drains.
func notifyTerminate() (sigc <-chan os.Signal, stop func()) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	return c, func() { signal.Stop(c) }
}

// serveUntilSignal is the drain `serve` and `fleet` share: block until
// the server fails on its own (errc) or a signal arrives, then give
// shutdown 30 s to finish admitted work.
func serveUntilSignal(sigc <-chan os.Signal, errc <-chan error, shutdown func(context.Context) error) error {
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("%s: draining (admitted requests finish, new ones get 503)", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := shutdown(ctx); err != nil {
			return err
		}
		log.Printf("drained, exiting")
		return <-errc
	}
}
