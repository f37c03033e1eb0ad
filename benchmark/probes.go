package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"candle/internal/candle"
	"candle/internal/checkpoint"
	"candle/internal/csvio"
	"candle/internal/data"
	"candle/internal/launch"
	"candle/internal/mpi"
	"candle/internal/nn"
	"candle/internal/tensor"
)

// The probes are the traced pass's calls into single layers, at the
// shapes the workload's runs use. Each is a few hundred milliseconds;
// a workload runs only the probes of the layers it is about, and the
// other layers' metrics read 0 there.

// probes runs the layer probes of a training workload.
func (s trainSpec) probes(c *runCtx, b *candle.Benchmark, dataDir string, root *span) error {
	if err := s.probeModel(c, b, root); err != nil {
		return err
	}
	if err := probeCheckpoint(c, b, s.dtype, root); err != nil {
		return err
	}
	if s.cache != "" {
		if err := s.probeLoading(c, b, dataDir, root); err != nil {
			return err
		}
	}
	if s.ranks > 1 {
		params := modelParams(b)
		if err := probeCollectives(c, "inproc", s.ranks, params, root); err != nil {
			return err
		}
		if s.procs > 0 {
			for _, tr := range []string{"unix", "tcp"} {
				if err := probeCollectives(c, tr, s.ranks, params, root); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// compiled builds the workload's model ready to train, the way the
// runner does.
func compiled(b *candle.Benchmark, dtype string, lr float64) (*nn.Sequential, error) {
	m := b.Build(b.Spec)
	if dtype != "" {
		dt, err := tensor.ParseDType(dtype)
		if err != nil {
			return nil, err
		}
		if err := m.SetDType(dt); err != nil {
			return nil, err
		}
	}
	if lr <= 0 {
		lr = b.Cal.LearningRate
	}
	if lr <= 0 {
		lr = 0.001
	}
	if err := m.Compile(b.Spec.Features, b.Loss, nn.NewOptimizer(b.Cal.Optimizer, lr), modelSeed); err != nil {
		return nil, err
	}
	return m, nil
}

func modelParams(b *candle.Benchmark) int {
	m, err := compiled(b, "", 0)
	if err != nil {
		return 0
	}
	return m.ParamCount()
}

// layerKind maps a layer's name to the kind the nn.* metrics sum by.
func layerKind(name string) string {
	switch {
	case strings.HasPrefix(name, "conv1d"):
		return "conv1d"
	case strings.HasPrefix(name, "maxpool"), strings.HasPrefix(name, "avgpool"):
		return "pool"
	case strings.HasPrefix(name, "dense"):
		return "dense"
	case strings.HasPrefix(name, "activation"):
		return "activation"
	}
	return "" // flatten, dropout: not reported by kind, still in the layer sum
}

// probeModel times the nn and tensor layers at the workload's model,
// precision and batch: per-layer-kind forward and backward
// (nn.ProfileLayers), a whole training step, the optimizer as the
// step's remainder, an evaluation pass, the dominant dense matmul in
// both orientations, and the allocations of a warm step.
func (s trainSpec) probeModel(c *runCtx, b *candle.Benchmark, root *span) error {
	sp := c.spans.begin("probe_model", "nn", root)
	defer sp.end()
	m, err := compiled(b, s.dtype, s.lr)
	if err != nil {
		return err
	}
	ds, err := data.Generate(b.Spec, c.seed)
	if err != nil {
		return err
	}
	batch := s.batch
	if batch > ds.X.Rows {
		batch = ds.X.Rows
	}
	x, y := ds.X.RowSlice(0, batch), ds.Y.RowSlice(0, batch)

	// Warm the buffers, then size the repetition count to ~0.3 s.
	m.TrainBatch(x, y)
	t0 := time.Now()
	m.TrainBatch(x, y)
	reps := int(0.3/time.Since(t0).Seconds()) + 1
	if reps > 200 {
		reps = 200
	}
	if c.smoke {
		reps = 2
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stepSpan := c.spans.begin("train_steps", "nn", sp)
	for i := 0; i < reps; i++ {
		m.TrainBatch(x, y)
	}
	stepS := stepSpan.end() / float64(reps)
	runtime.ReadMemStats(&after)
	c.set("tensor.mallocs_per_step", float64(after.Mallocs-before.Mallocs)/float64(reps))
	c.set("tensor.workers", float64(tensor.Workers()))

	profSpan := c.spans.begin("profile_layers", "nn", sp)
	timings, err := nn.ProfileLayers(m, b.Loss, x, y, reps)
	profSpan.end()
	if err != nil {
		return err
	}
	forward, backward := map[string]float64{}, map[string]float64{}
	layerSum := 0.0
	for _, t := range timings {
		f, bw := t.Forward.Seconds()/float64(reps), t.Backward.Seconds()/float64(reps)
		layerSum += f + bw
		if kind := layerKind(t.Name); kind != "" {
			forward[kind] += f
			backward[kind] += bw
		}
	}
	for _, kind := range []string{"conv1d", "pool", "dense", "activation"} {
		c.set("nn."+kind+".forward_s", forward[kind])
		c.set("nn."+kind+".backward_s", backward[kind])
	}
	c.set("nn.step_s", stepS)
	c.set("nn.optimizer_s", math.Max(stepS-layerSum, 0))
	c.set("nn.layer_sum_share", layerSum/stepS)

	te, err := data.GenerateTest(b.Spec, c.seed)
	if err != nil {
		return err
	}
	evalSpan := c.spans.begin("evaluate", "nn", sp)
	m.Evaluate(te.X, te.Y)
	c.set("nn.evaluate_s", evalSpan.end())

	c.logf("  one training step at batch %d (%.4f s): layers %.1f%%, optimizer and the rest %.1f%%",
		batch, stepS, 100*layerSum/stepS, 100*(1-layerSum/stepS))
	if layerSum/stepS < 0.75 {
		c.logf("    FLAG: the layers account for under 75%% of a step")
	}
	probeMatmul(c, m, x, s.dtype == "f32", sp)
	return nil
}

// dominantProduct walks one forward pass and returns the M x K x N of
// the matrix product that costs the most: batch x in x out for a Dense
// layer, (batch * output steps) x (kernel * channels) x filters for a
// Conv1D, which multiplies its im2col patches.
func dominantProduct(m *nn.Sequential, x *tensor.Matrix) (rows, inner, cols int) {
	act := x
	for _, l := range m.Layers {
		out := l.Forward(act, false)
		if kind := layerKind(l.Name()); (kind == "dense" || kind == "conv1d") && len(l.Params()) > 0 {
			w := l.Params()[0].Value
			r := x.Rows
			if kind == "conv1d" {
				r = x.Rows * out.Cols / w.Cols
			}
			if r*w.Rows*w.Cols > rows*inner*cols {
				rows, inner, cols = r, w.Rows, w.Cols
			}
		}
		act = out
	}
	return rows, inner, cols
}

// probeMatmul times the model's dominant matrix product, as the forward
// pass multiplies it (x times w) and as the backward pass does for the
// weight gradient (x transposed times dy), at the workload's precision.
func probeMatmul(c *runCtx, m *nn.Sequential, x *tensor.Matrix, f32 bool, parent *span) {
	sp := c.spans.begin("probe_matmul", "tensor", parent)
	defer sp.end()
	rows, inner, cols := dominantProduct(m, x)
	if rows == 0 {
		return
	}
	c.logf("  dominant matrix product: %d x %d times %d x %d", rows, inner, inner, cols)
	rng := rand.New(rand.NewSource(c.seed))
	flops := 2 * float64(rows) * float64(inner) * float64(cols)
	gflops := func(f func()) float64 {
		f() // warm
		t0 := time.Now()
		n := 0
		for n == 0 || (time.Since(t0) < 150*time.Millisecond && !c.smoke) {
			f()
			n++
		}
		return flops * float64(n) / time.Since(t0).Seconds() / 1e9
	}
	if f32 {
		a := tensor.RandNormal32(rng, rows, inner, 1)
		w := tensor.RandNormal32(rng, inner, cols, 1)
		dy := tensor.RandNormal32(rng, rows, cols, 1)
		out, dw := tensor.New32(rows, cols), tensor.New32(inner, cols)
		c.set("tensor.matmul_f32_gflops", gflops(func() { tensor.MatMulInto32(out, a, w) }))
		c.set("tensor.tmatmul_f32_gflops", gflops(func() { tensor.TMatMulInto32(dw, a, dy) }))
		return
	}
	a := tensor.RandNormal(rng, rows, inner, 1)
	w := tensor.RandNormal(rng, inner, cols, 1)
	dy := tensor.RandNormal(rng, rows, cols, 1)
	out, dw := tensor.New(rows, cols), tensor.New(inner, cols)
	c.set("tensor.matmul_f64_gflops", gflops(func() { tensor.MatMulInto(out, a, w) }))
	c.set("tensor.tmatmul_f64_gflops", gflops(func() { tensor.TMatMulInto(dw, a, dy) }))
}

// probeLoading times the loading layers on the workload's own files:
// the three whole-file csvio engines on the test CSV, the sharded
// loader cold and warm on a world of the workload's ranks, and the
// preprocessing that follows a read.
func (s trainSpec) probeLoading(c *runCtx, b *candle.Benchmark, dataDir string, root *span) error {
	sp := c.spans.begin("probe_loading", "csvio", root)
	defer sp.end()
	train, test := b.Files(dataDir)
	parseErrors := 0
	var raw *tensor.Matrix
	for _, engine := range []string{"naive", "chunked", "parallel"} {
		r, err := csvio.ByName(engine)
		if err != nil {
			return err
		}
		es := c.spans.begin("read_"+engine, "csvio", sp)
		m, st, err := r.Read(test)
		seconds := es.end()
		if err != nil {
			parseErrors++
			continue
		}
		raw = m
		c.set("csvio."+engine+".read_s", seconds)
		c.set("csvio.bytes_read", float64(st.BytesRead))
	}
	c.set("csvio.parse_errors", float64(parseErrors))
	c.check("csv engines read the file", parseErrors == 0, "%d of 3 engines failed", parseErrors)

	if raw != nil {
		ps := c.spans.begin("from_raw", "data", sp)
		_, _, err := data.FromRawCSV(b.Spec, raw)
		c.set("data.from_raw_s", ps.end())
		if err != nil {
			return err
		}
	}

	cacheDir := filepath.Join(c.dir, "probe-cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	cs := c.spans.begin("sharded_cold", "dataload", sp)
	_, coldHits, fallbacks, _, err := shardedRead(b, dataDir, cacheDir, s.ranks)
	cold := cs.end()
	if err != nil {
		return err
	}
	ws := c.spans.begin("sharded_warm", "dataload", sp)
	_, warmHits, _, cacheBytes, err := shardedRead(b, dataDir, cacheDir, s.ranks)
	warm := ws.end()
	if err != nil {
		return err
	}
	csvBytes := 0.0
	for _, p := range []string{train, test} {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		csvBytes += float64(fi.Size())
	}
	c.set("dataload.cold_read_s", cold)
	c.set("dataload.mb_per_s_cold", csvBytes/1e6/cold)
	c.set("dataload.warm_read_s", warm)
	c.set("dataload.cache_bytes", float64(cacheBytes))
	c.set("dataload.serial_fallback", float64(fallbacks))
	// The hit count the workload's own runs see: none on a cold cache,
	// one per rank on a warm one.
	if s.cache == "warm" {
		c.set("dataload.cache_hit", float64(warmHits))
	} else {
		c.set("dataload.cache_hit", float64(coldHits))
	}
	c.check("sharded loader: cold misses, warm hits", coldHits == 0 && warmHits == s.ranks,
		"cold %d hits, warm %d hits on %d ranks", coldHits, warmHits, s.ranks)
	return nil
}

// probeCollectives times allreduces of the workload's gradient length
// ("large") and of 8 K elements ("small"), and one broadcast, on a
// world of the given transport: "inproc" is one mpi.NewWorld, "unix"
// and "tcp" are launch.StartLocal sessions of one rank each, whose
// rendezvous is timed too.
func probeCollectives(c *runCtx, transport string, ranks, large int, root *span) error {
	sp := c.spans.begin("probe_collectives_"+transport, "mpi", root)
	defer sp.end()
	const small = 8 << 10
	largeIters, smallIters := 5, 50
	if c.smoke {
		large, largeIters, smallIters = 4<<10, 2, 2
	}

	var worlds []*mpi.World
	if transport == "inproc" {
		worlds = []*mpi.World{mpi.NewWorld(ranks)}
	} else {
		rs := c.spans.begin("rendezvous", "launch", sp)
		sessions, err := launch.StartLocal(transport, ranks, 1, 0)
		rendezvous := rs.end()
		if err != nil {
			return fmt.Errorf("%s rendezvous: %w", transport, err)
		}
		for _, s := range sessions {
			defer s.Close()
			w, err := s.NewWorld()
			if err != nil {
				return err
			}
			worlds = append(worlds, w)
		}
		if transport == "unix" {
			c.set("launch.rendezvous_s", rendezvous)
		}
	}

	// Rank 0 times each collective between barriers, so the figure is
	// the time of the collective as the slowest rank sees it.
	var largeS, smallS, bcastS float64
	worker := func(comm *mpi.Comm) error {
		timeIt := func(elems, iters int, op func([]float64) error) (float64, error) {
			buf := make([]float64, elems)
			for i := range buf {
				buf[i] = float64(comm.Rank() + i%7)
			}
			if err := op(buf); err != nil { // warm
				return 0, err
			}
			if err := comm.Barrier(); err != nil {
				return 0, err
			}
			t0 := time.Now()
			for n := 0; n < iters; n++ {
				if err := op(buf); err != nil {
					return 0, err
				}
			}
			if err := comm.Barrier(); err != nil {
				return 0, err
			}
			return time.Since(t0).Seconds() / float64(iters), nil
		}
		l, err := timeIt(large, largeIters, comm.AllreduceSum)
		if err != nil {
			return err
		}
		sm, err := timeIt(small, smallIters, comm.AllreduceSum)
		if err != nil {
			return err
		}
		bc, err := timeIt(large, largeIters, func(b []float64) error { return comm.Broadcast(0, b) })
		if err != nil {
			return err
		}
		if comm.Rank() == 0 {
			largeS, smallS, bcastS = l, sm, bc
		}
		return nil
	}
	errs := make([]error, len(worlds))
	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *mpi.World) {
			defer wg.Done()
			errs[i] = w.Run(worker)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("%s collectives: %w", transport, err)
		}
	}
	switch transport {
	case "inproc":
		c.set("mpi.inproc.allreduce_large_s", largeS)
		c.set("mpi.inproc.allreduce_small_s", smallS)
		c.set("mpi.inproc.broadcast_s", bcastS)
		// Exact counts of one large allreduce: a second, untimed world
		// that does nothing else.
		w := mpi.NewWorld(ranks)
		err := w.Run(func(comm *mpi.Comm) error { return comm.AllreduceSum(make([]float64, large)) })
		if err != nil {
			return err
		}
		c.set("mpi.bytes_per_allreduce", float64(w.BytesSent()))
		c.set("mpi.messages_per_allreduce", float64(w.MessagesSent()))
	case "unix":
		c.set("transport.unix.allreduce_large_s", largeS)
		c.set("transport.unix.allreduce_small_s", smallS)
	case "tcp":
		c.set("transport.tcp.allreduce_large_s", largeS)
	}
	return nil
}

// probeCheckpoint times one save and one load of a snapshot of the
// workload's model at its precision.
func probeCheckpoint(c *runCtx, b *candle.Benchmark, dtype string, root *span) error {
	sp := c.spans.begin("probe_checkpoint", "checkpoint", root)
	defer sp.end()
	m, err := compiled(b, dtype, 0)
	if err != nil {
		return err
	}
	dir := filepath.Join(c.dir, "probe-ckpt")
	defer os.RemoveAll(dir)
	sv := &served{b: b, dtype: dtype, dir: dir}
	ss := c.spans.begin("save", "checkpoint", sp)
	err = sv.saveWeights(0, m.WeightsVector())
	c.set("checkpoint.save_s", ss.end())
	if err != nil {
		return err
	}
	path := checkpoint.FileFor(dir, b.Spec.Name, 0)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	c.set("checkpoint.bytes", float64(fi.Size()))
	ls := c.spans.begin("load", "checkpoint", sp)
	_, err = checkpoint.Load(path)
	c.set("checkpoint.load_s", ls.end())
	return err
}

// processMetrics reports what the measured part cost the process:
// peak resident memory, bytes allocated, collections and their pauses
// since before.
func processMetrics(c *runCtx, before runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	c.set("process.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	c.set("process.gc_cycles", float64(after.NumGC-before.NumGC))
	c.set("process.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.set("process.peak_rss_mb", float64(ru.Maxrss)/1e3) // Linux reports KB
	}
	worst := 0.0
	for name, samples := range c.res.Samples {
		if declared(endToEnd, name) && len(samples) > 1 && iqrShare(samples) > worst {
			worst = iqrShare(samples)
		}
	}
	c.set("bench.repeat_iqr_share", worst)
	referenceMs, _ := hostFactor(c.res.HostReadingsMs)
	c.set("bench.host_reference_ms", referenceMs)
}
