package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"candle/internal/candle"
	"candle/internal/data"
	"candle/internal/dataload"
	"candle/internal/mpi"
	"candle/internal/power"
	"candle/internal/trace"
)

// trainSpec is one training workload's inputs and settings. Every
// dimension a workload is not about stays at the RunConfig default
// (engine naive, f64, overlap off).
type trainSpec struct {
	bench                 string
	sampleDiv, featureDiv int
	ranks                 int
	procs                 int // > 0: RunMultiProc over unix sockets
	overlap               bool
	engine, dtype         string
	batch                 int
	lr                    float64
	epochs                int
	cache                 string // "", "cold" (fresh empty CacheDir per run) or "warm" (pre-filled)
	// The quality target the run races to, fixed per workload: the
	// first epoch must end at or under firstLossMax, and the target is
	// met by the first epoch whose test loss is at most targetRatio
	// times the first epoch's. The target is relative because the seed
	// shifts a whole loss curve by more than one epoch moves it; the
	// ratio sits in the widest gap between two epochs' measured ranges,
	// so the same epoch meets it on every seed (README has the ranges).
	// A ratio of 1 is for the runs that give each rank one epoch.
	firstLossMax, targetRatio float64
	// checkpointEvery is RunConfig.CheckpointEvery where a run writes
	// checkpoints (the serving workloads' set-up).
	checkpointEvery int
}

// Sizes were chosen on a 2-core host so that one timed run takes about
// half a second: short enough that some of a run's ten or so rounds
// fall entirely into a stretch the host leaves undisturbed (README,
// "Run discipline"), long enough that the layer each workload is about
// still does nearly all of the work.
var (
	nt3Compute = trainSpec{bench: "NT3", sampleDiv: 8, featureDiv: 300, ranks: 1,
		batch: 20, epochs: 4, firstLossMax: 0.90, targetRatio: 0.90}
	p1b1F32 = trainSpec{bench: "P1B1", sampleDiv: 16, featureDiv: 60, ranks: 1, dtype: "f32",
		batch: 32, lr: 0.001, epochs: 9, firstLossMax: 1.10, targetRatio: 0.925}
	loadCold = trainSpec{bench: "P1B2", sampleDiv: 12, featureDiv: 3, ranks: 2, engine: "sharded", cache: "cold",
		batch: 64, lr: 0.005, epochs: 2, firstLossMax: 1.0, targetRatio: 1}
	loadWarm = withCache(loadCold, "warm")
	commUnix = trainSpec{bench: "P1B1", sampleDiv: 40, featureDiv: 30, ranks: 2, procs: 2, overlap: true,
		batch: 4, lr: 0.001, epochs: 2, firstLossMax: 1.10, targetRatio: 1}
	// servedModel is what the two serving workloads train in set-up and
	// then serve: p1b1_f32's model on p1b1_f32's data for three epochs,
	// a checkpoint (one generation to serve) after each. Three epochs
	// keep a set-up near half a second, so that it can be repeated every
	// round; the borrowed time_to_target_s is therefore the first
	// epoch's end, as on the one-epoch-per-rank workloads.
	servedModel = trainSpec{bench: "P1B1", sampleDiv: 16, featureDiv: 60, ranks: 1, dtype: "f32",
		batch: 32, lr: 0.001, epochs: 3, firstLossMax: 1.10, targetRatio: 1, checkpointEvery: 1}
)

func withCache(s trainSpec, cache string) trainSpec {
	s.cache = cache
	return s
}

// smoke shrinks a spec to test scale: same code paths, a run of a few
// tens of milliseconds, no target to reach.
func (s trainSpec) smoke() trainSpec {
	s.sampleDiv *= 4
	s.featureDiv *= 8
	if s.bench == "P1B2" {
		s.featureDiv *= 4
	}
	s.firstLossMax, s.targetRatio = math.Inf(1), 1
	if s.epochs > 2 {
		s.epochs = 2
	}
	if s.checkpointEvery > 0 {
		s.epochs, s.checkpointEvery = 3, 1 // still three generations
	}
	return s
}

func (s trainSpec) benchmark() (*candle.Benchmark, error) {
	return candle.Scaled(s.bench, s.sampleDiv, s.featureDiv)
}

// oneRun is what a single Benchmark.Run / RunMultiProc call gave.
type oneRun struct {
	wall float64
	res  *candle.RunResult
	tl   *trace.Timeline
}

// run makes one call into the program under test. ckptDir is empty
// except in the serving workloads' set-up; keepWeights is set on the
// untimed warm-up only, whose final weights the serving pass serves.
func (s trainSpec) run(b *candle.Benchmark, dataDir, cacheDir, ckptDir string, traced, keepWeights bool) (oneRun, error) {
	cfg := candle.RunConfig{
		Ranks: s.ranks, TotalEpochs: s.epochs, Batch: s.batch, DType: s.dtype,
		Engine: s.engine, CacheDir: cacheDir, DataDir: dataDir,
		Seed: modelSeed, LR: s.lr, Overlap: s.overlap,
		CheckpointDir: ckptDir, CheckpointEvery: s.checkpointEvery,
		TrackEpochs: true, KeepWeights: keepWeights,
	}
	var out oneRun
	if traced {
		out.tl = trace.NewTimeline()
		cfg.Timeline = out.tl
	}
	var err error
	start := time.Now()
	if s.procs > 0 {
		cfg.Transport = "unix"
		out.res, err = b.RunMultiProc(cfg, s.procs)
	} else {
		out.res, err = b.Run(cfg)
	}
	out.wall = time.Since(start).Seconds()
	return out, err
}

// timeToTarget is the run clock at the end of the first epoch whose
// test loss met the target (so loading is included).
func (s trainSpec) timeToTarget(r oneRun) (float64, bool) {
	root := r.res.Root
	if len(root.EpochTestLoss) == 0 || !(root.EpochTestLoss[0] <= s.firstLossMax) {
		return 0, false
	}
	for i, loss := range root.EpochTestLoss {
		if loss <= s.targetRatio*root.EpochTestLoss[0] {
			return root.EpochEndSeconds[i], true
		}
	}
	return 0, false
}

// generations lists the epochs a run of this spec leaves checkpoints of.
func (s trainSpec) generations() []int {
	var epochs []int
	for e := s.checkpointEvery - 1; e < s.epochs; e += s.checkpointEvery {
		epochs = append(epochs, e)
	}
	return epochs
}

func samplesPerSecond(b *candle.Benchmark, r oneRun) float64 {
	epochs := 0
	for _, rank := range r.res.Ranks {
		epochs += rank.Epochs
	}
	return float64(b.Spec.TrainSamples*epochs) / r.res.Root.TrainSeconds
}

// prepareData is Benchmark.PrepareData with the generation timed apart
// from the CSV write, and the files flushed so that write-back does not
// run under the timed repeats.
func prepareData(b *candle.Benchmark, dir string, seed int64) (generateS float64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	tr, err := data.Generate(b.Spec, seed)
	if err != nil {
		return 0, err
	}
	te, err := data.GenerateTest(b.Spec, seed)
	if err != nil {
		return 0, err
	}
	generateS = time.Since(start).Seconds()
	train, test := b.Files(dir)
	if err := tr.WriteCSV(train); err != nil {
		return 0, err
	}
	if err := te.WriteCSV(test); err != nil {
		return 0, err
	}
	return generateS, flush(train, test)
}

func flush(paths ...string) error {
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return fmt.Errorf("sync %s: %w", p, err)
		}
	}
	return nil
}

// shardedRead reads the benchmark's two CSVs with the sharded loader on
// a 2-rank in-process world, the way load_cold and load_warm's runs do.
// It fills cacheDir on a miss and reads it on a hit, and returns the
// wall time plus rank 0's stats for the train file.
func shardedRead(b *candle.Benchmark, dataDir, cacheDir string, ranks int) (seconds float64, hits, fallbacks int, bytes int64, err error) {
	train, test := b.Files(dataDir)
	world := mpi.NewWorld(ranks)
	var nHits, nFallbacks, rank0Bytes atomic.Int64
	start := time.Now()
	err = world.Run(func(c *mpi.Comm) error {
		l := &dataload.Loader{Comm: c, Cache: true, CacheDir: cacheDir}
		for _, p := range []string{test, train} {
			_, st, err := l.Read(p)
			if err != nil {
				return err
			}
			if p == train {
				if st.CacheHit {
					nHits.Add(1)
				}
				if st.SerialFallback {
					nFallbacks.Add(1)
				}
				if c.Rank() == 0 {
					rank0Bytes.Store(st.BytesRead)
				}
			}
		}
		return nil
	})
	return time.Since(start).Seconds(), int(nHits.Load()), int(nFallbacks.Load()), rank0Bytes.Load(), err
}

// setUp generates the workload's inputs into dir from the seed and,
// for the warm workload, fills the loader's cache.
func (s trainSpec) setUp(b *candle.Benchmark, dir string, seed int64) (generateS float64, err error) {
	generateS, err = prepareData(b, dir, seed)
	if err != nil {
		return 0, err
	}
	if s.cache == "warm" {
		cacheDir := filepath.Join(dir, "cache")
		if err := os.MkdirAll(cacheDir, 0o755); err != nil {
			return 0, err
		}
		if _, _, _, _, err := shardedRead(b, dir, cacheDir, s.ranks); err != nil {
			return 0, fmt.Errorf("filling the cache: %w", err)
		}
		train, test := b.Files(dir)
		if err := flush(dataload.CachePath(train, cacheDir), dataload.CachePath(test, cacheDir)); err != nil {
			return 0, err
		}
	}
	return generateS, nil
}

// cacheDirFor gives the CacheDir of run number n: none, the pre-filled
// one, or a fresh empty one.
func (s trainSpec) cacheDirFor(dataDir string, n int) (string, error) {
	switch s.cache {
	case "warm":
		return filepath.Join(dataDir, "cache"), nil
	case "cold":
		dir := filepath.Join(dataDir, fmt.Sprintf("cold%03d", n))
		return dir, os.MkdirAll(dir, 0o755)
	}
	return "", nil
}

// settle puts the heap in the same state before every timed sample.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// timedSetUp runs one set-up into a fresh directory, books its
// duration as a sample of setup_s and removes what it wrote.
func timedSetUp(c *runCtx, root *span, n int, setUp func(dir string) error) error {
	dir := filepath.Join(c.dir, fmt.Sprintf("setup%03d", n))
	sp := c.spans.begin("setup", "bench", root)
	var err error
	var took float64
	c.around(func() {
		err = setUp(dir)
		took = sp.end()
	})
	c.sample("setup_s", took)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	return os.RemoveAll(dir)
}

// trainRuns are the timed runs of a workload and the checks on them.
type trainRuns struct {
	runs   []oneRun // untraced
	traced []oneRun
	failed int
	n      int // runs started, for the cold cache directories
}

// repeat makes one run of the workload after settling the heap, on a
// fresh cache directory where the workload wants a cold one.
func (t *trainRuns) repeat(c *runCtx, s trainSpec, b *candle.Benchmark, dataDir, name string, traced bool, root *span) (oneRun, error) {
	cacheDir, err := s.cacheDirFor(dataDir, t.n)
	if err != nil {
		return oneRun{}, err
	}
	t.n++
	settle()
	sp := c.spans.begin(name, "candle", root)
	var r oneRun
	c.around(func() {
		r, err = s.run(b, dataDir, cacheDir, "", traced, name == "warmup")
		sp.end()
	})
	if err != nil {
		return r, fmt.Errorf("%s: %w", name, err)
	}
	if r.tl != nil {
		sp.adopt(r.tl)
	}
	if s.cache == "cold" {
		if err := os.RemoveAll(cacheDir); err != nil {
			return r, err
		}
	}
	return r, nil
}

// add books one untraced timed run: a sample of each of the three
// training metrics, or a failed operation when it missed the quality
// target.
func (t *trainRuns) add(c *runCtx, s trainSpec, b *candle.Benchmark, r oneRun) {
	t.runs = append(t.runs, r)
	c.sample("run_s", r.wall)
	c.sample("train_samples_per_s", samplesPerSecond(b, r))
	if ttt, ok := s.timeToTarget(r); ok {
		c.sample("time_to_target_s", ttt)
		return
	}
	t.failed++
}

// book adds the timed runs to the run's operation counts and checks
// that every one reached the quality target (every run of a seed has
// the same loss curve, so they all reach it or none does).
func (t *trainRuns) book(c *runCtx, s trainSpec) {
	c.res.Attempted += len(t.runs)
	c.res.Failed += t.failed
	c.check("target reached", t.failed == 0, "%d of %d runs missed it: test loss by epoch %v, first at most %v, then at most %v of the first",
		t.failed, len(t.runs), t.runs[0].res.Root.EpochTestLoss, s.firstLossMax, s.targetRatio)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkOutputs holds the runs to the replica-sync and determinism
// invariants: all ranks end on the same weights, and every repeat of a
// seed ends on the same weights and test loss, traced or not.
func (s trainSpec) checkOutputs(c *runCtx, runs []oneRun) {
	first := runs[0].res.Root
	ranksAgree, repeatsAgree := true, true
	for _, r := range runs {
		for _, rank := range r.res.Ranks {
			ranksAgree = ranksAgree && rank.WeightsChecksum == r.res.Root.WeightsChecksum
		}
		repeatsAgree = repeatsAgree && r.res.Root.WeightsChecksum == first.WeightsChecksum &&
			r.res.Root.TestLoss == first.TestLoss
	}
	c.check("ranks hold identical weights", ranksAgree, "%d runs x %d ranks", len(runs), len(runs[0].res.Ranks))
	c.check("repeats are bit-identical", repeatsAgree, "%d runs, checksum %v, test loss %v",
		len(runs), first.WeightsChecksum, first.TestLoss)
	finite := !math.IsNaN(first.TestLoss) && !math.IsInf(first.TestLoss, 0)
	c.check("test loss is finite", finite, "%v", first.TestLoss)
	c.res.WeightsChecksum, c.res.TestLoss = first.WeightsChecksum, first.TestLoss
	c.logf("  fingerprint: weights checksum %v, test loss %v", first.WeightsChecksum, first.TestLoss)
}

// trainWorkload is the shape all five training workloads share. Once,
// untimed: set-up, a warm-up run, a served model. Then rounds, each
// taking one sample of every end-to-end metric: a set-up, a run, and a
// window of closed-loop requests against the model the warm-up run
// trained (the borrowed serving metrics; README says why they exist).
// The traced pass runs traced and untraced runs in pairs instead, and
// then the layer probes.
func trainWorkload(full trainSpec) func(*runCtx) error {
	return func(c *runCtx) error {
		s := full
		if c.smoke {
			s = s.smoke()
		}
		b, err := s.benchmark()
		if err != nil {
			return err
		}
		root := c.spans.begin(c.w.Name, "bench", nil)
		defer root.end()

		// The first set-up, the first run and the first served batches
		// of a process are slower than every later one (README,
		// Findings), so none of them is timed.
		dataDir := filepath.Join(c.dir, "data")
		generateS, err := s.setUp(b, dataDir, c.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		c.logf("%s: %s %dx%d, %d rank(s)", c.w.Name, b.Spec.Name, b.Spec.TrainSamples, b.Spec.Features, s.ranks)
		t := &trainRuns{}
		warm, err := t.repeat(c, s, b, dataDir, "warmup", false, root)
		if err != nil {
			return err
		}
		c.logf("  warm-up: run_s %.4f (untimed: the first run of a process); test loss by epoch %.5v",
			warm.wall, warm.res.Root.EpochTestLoss)
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		if c.traced {
			// Pairs, alternating which kind goes first, so that traced
			// and untraced runs see the same machine.
			err := c.rounds(tracedPairs, func(i int) error {
				for k := 0; k < 2; k++ {
					traced := k == i%2
					r, err := t.repeat(c, s, b, dataDir, fmt.Sprintf("round%d", i), traced, root)
					if err != nil {
						return err
					}
					if traced {
						t.traced = append(t.traced, r)
					} else {
						t.add(c, s, b, r)
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			s.checkOutputs(c, append(append([]oneRun{warm}, t.runs...), t.traced...))
			t.book(c, s)
			c.set("data.generate_s", generateS)
			s.phaseBudget(c, t)
			if err := s.checkAgainstInProcess(c, b, dataDir, t, root); err != nil {
				return err
			}
			if err := s.probes(c, b, dataDir, root); err != nil {
				return err
			}
			processMetrics(c, before)
			return nil
		}

		pass, err := newServePass(c, b, s.dtype, warm.res.Root.FinalWeights, root)
		if err != nil {
			return err
		}
		defer pass.close()
		err = c.rounds(minRounds, func(i int) error {
			err := timedSetUp(c, root, i, func(dir string) error {
				_, err := s.setUp(b, dir, c.seed)
				return err
			})
			if err != nil {
				return err
			}
			r, err := t.repeat(c, s, b, dataDir, fmt.Sprintf("round%d", i), false, root)
			if err != nil {
				return err
			}
			t.add(c, s, b, r)
			pass.window(c)
			return nil
		})
		if err != nil {
			return err
		}
		s.checkOutputs(c, append([]oneRun{warm}, t.runs...))
		t.book(c, s)
		return pass.finish(c)
	}
}

// tracedPairs is the fewest pairs of traced and untraced runs
// trace.overhead_share is taken over.
const tracedPairs = 5

// checkAgainstInProcess holds a multi-process workload to the
// bit-identity discipline: the same configuration run in one process,
// over channels, with overlap off, must end on the same weights.
func (s trainSpec) checkAgainstInProcess(c *runCtx, b *candle.Benchmark, dataDir string, t *trainRuns, root *span) error {
	if s.procs == 0 {
		return nil
	}
	ref := s
	ref.procs, ref.overlap = 0, false
	sp := c.spans.begin("in_process_reference", "candle", root)
	r, err := ref.run(b, dataDir, "", "", false, false)
	sp.end()
	if err != nil {
		return fmt.Errorf("in-process reference run: %w", err)
	}
	got, want := t.runs[0].res.Root, r.res.Root
	c.check("sockets with overlap = in-process without", got.WeightsChecksum == want.WeightsChecksum && got.TestLoss == want.TestLoss,
		"checksum %v vs %v, test loss %v vs %v", got.WeightsChecksum, want.WeightsChecksum, got.TestLoss, want.TestLoss)
	return nil
}

// phaseBudget turns the traced runs into the per-layer metrics of the
// candle, horovod, trace and power layers and prints the budget
// run_s = load + broadcast + compute + allreduce + eval + unattributed.
// Every figure is rank 0's view of one run, the fastest traced one: the
// run the host disturbed least, whose phases add up to its own wall
// clock. trace.overhead_share compares it with the fastest untraced run
// of the same pairs.
func (s trainSpec) phaseBudget(c *runCtx, t *trainRuns) {
	fastest := t.traced[0]
	for _, r := range t.traced {
		if r.wall < fastest.wall {
			fastest = r
		}
	}
	root, tl := fastest.res.Root, fastest.tl
	total, untraced := fastest.wall, best(c.res.Samples["run_s"], "lower")
	load, train, eval := root.LoadSeconds, root.TrainSeconds, root.EvalSeconds
	negBcast, bcast := tl.NameTime(0, "negotiate_broadcast"), tl.NameTime(0, "mpi_broadcast")
	negAll, all := tl.NameTime(0, "negotiate_allreduce"), tl.NameTime(0, "NCCL_allreduce")
	broadcast, allreduce := negBcast+bcast, negAll+all
	compute := train - broadcast - allreduce
	unattributed := total - load - train - eval

	c.set("candle.load_s", load)
	c.set("candle.train_s", train)
	c.set("candle.eval_s", eval)
	c.set("candle.compute_s", compute)
	c.set("candle.unattributed_s", unattributed)
	c.set("horovod.negotiate_broadcast_s", negBcast)
	c.set("horovod.broadcast_s", bcast)
	c.set("horovod.negotiate_allreduce_s", negAll)
	c.set("horovod.allreduce_s", all)
	c.set("horovod.allreduce_overlap_s", tl.NameTime(0, "allreduce_overlap"))
	c.set("horovod.queue_wait_s", tl.NameTime(0, "queue_wait"))
	c.set("horovod.overlap_fraction", tl.OverlapFraction(0))
	c.set("horovod.allreduce_calls", float64(root.AllreduceCalls))
	c.set("horovod.collective_share", (broadcast+allreduce)/train)
	c.set("trace.events", float64(tl.Len()))
	c.set("trace.overhead_share", total/untraced-1)
	trainBegin := 0.0
	for _, e := range tl.Filter("training") {
		if e.TID == 0 {
			trainBegin = e.Start
			break
		}
	}
	ends := root.EpochEndSeconds
	c.set("candle.first_epoch_s", ends[0]-trainBegin)
	if len(ends) > 1 {
		c.set("candle.later_epoch_s", (ends[len(ends)-1]-ends[0])/float64(len(ends)-1))
	}

	// Modeled, not measured: /sys/class/powercap is absent here.
	var profile power.Profile
	at := 0.0
	for _, seg := range []struct {
		phase   power.Phase
		seconds float64
	}{
		{power.DataLoad, load}, {power.Broadcast, broadcast}, {power.Compute, math.Max(compute, 0)},
		{power.Allreduce, allreduce}, {power.Evaluate, eval},
	} {
		profile = append(profile, power.Segment{Start: at, End: at + seg.seconds, Phase: seg.phase})
		at += seg.seconds
	}
	c.set("power.modeled_energy_j", power.ContainerComponents().Energy(profile).Node*float64(s.ranks))

	c.logf("  budget of the fastest of %d traced runs (%.4f s; fastest of %d untraced %.4f s; tracing overhead %+.1f%%):",
		len(t.traced), total, len(t.runs), untraced, 100*(total/untraced-1))
	for _, part := range []struct {
		name    string
		seconds float64
	}{
		{"load", load}, {"broadcast", broadcast}, {"compute", compute},
		{"allreduce", allreduce}, {"eval", eval}, {"unattributed", unattributed},
	} {
		c.logf("    %-13s %8.4f s  %5.1f%%", part.name, part.seconds, 100*part.seconds/total)
	}
	// What no phase timer covers is the rank's own untimed part (model
	// build, compile and weight initialisation, the final checksum) and
	// what happens outside the ranks (launch, rendezvous, teardown).
	c.logf("    unattributed = %.4f s inside the rank (model build, checksum) + %.4f s outside it (launch, teardown)",
		root.TotalSeconds-load-train-eval, total-root.TotalSeconds)
	if math.Abs(unattributed) > 0.05*total {
		c.logf("    FLAG: unattributed time is over 5%% of the run")
	}
}
