package main

import "encoding/json"

// The names in this file are the benchmark's public surface: later
// issues refer to workloads and metrics by them, BENCHMARK.json lists
// them, and bench_test.go holds the two in step.

// metric describes one number the benchmark prints.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an
	// end-to-end metric may worsen before it counts as a regression,
	// and the spread between a set's own runs it may not exceed: the
	// figure in BENCHMARK.json. Per-layer metrics have none.
	Bound float64
	// Paired is the same for two sets of runs made in pairs, where the
	// host's drift cancels (-compare): the issue's bound.
	Paired float64
	// Layer is the internal package a per-layer metric belongs to.
	Layer string
	// Moves is the written-down prediction: the end-to-end metric and
	// workload the per-layer metric should move. Everywhere else the
	// prediction is "no change".
	Moves string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, because the driver's contract has one flat list
// (README, "The driver's contract"); builtFor says which of them each
// workload exists to measure. failed_share is not in the list: the
// contract forbids a metric that reads 0, and failed_share is 0 on every
// healthy run. It is carried by the attempted/failed counts of every
// result instead, and any rise fails -compare.
//
// Each metric has two bounds, because it is held to two different
// things. Paired is the issue's (a tenth, 15 % for the tail, 25 % for
// set-up): what -compare holds two sets of runs made in pairs to, where
// the host's drift cancels. Bound is what BENCHMARK.json carries. The
// driver holds ten unpaired runs' own spread to it, and wants that
// spread under a third of it; on the host the benchmark was sized on,
// unchanged code spreads by 2-16 % however a run is reduced (README,
// "Measurements"), so every Bound is the contract's largest.
var endToEnd = []metric{
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25, Paired: 0.10},
	{Name: "time_to_target_s", Unit: "s", Better: "lower", Bound: 0.25, Paired: 0.10},
	{Name: "train_samples_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Paired: 0.10},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Paired: 0.10},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Paired: 0.15},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25, Paired: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Paired: 0.25},
}

// trainingMetrics and servingMetrics are the two kinds of end-to-end
// metric. A training workload is built for the first kind and a serving
// workload for the second; setup_s belongs to both. The other kind is
// "borrowed": measured for real on a small second phase because the
// contract wants every metric from every workload, printed, but not
// judged by -compare.
var (
	trainingMetrics = []string{"run_s", "time_to_target_s", "train_samples_per_s"}
	servingMetrics  = []string{"latency_p50_ms", "latency_p99_ms", "throughput_rps"}
)

const (
	nt3Moves   = "run_s, train_samples_per_s on nt3_compute"
	denseMoves = "run_s, train_samples_per_s on every workload's training; latency_p50_ms on serve_open (forward only)"
	loadMoves  = "run_s, time_to_target_s on load_cold, load_warm"
	commMoves  = "run_s on comm_unix"
)

// perLayer is measured in the traced pass only, from this package, by
// timing calls into each layer's public functions and by reading the
// counters the layers already publish. A metric whose layer a workload
// does not exercise reads 0 there; that 0 is the "bypasses it" half of
// the prediction.
var perLayer = []metric{
	// candle: the phase split of one run, rank 0's view.
	{Name: "candle.load_s", Unit: "s", Better: "lower", Layer: "candle", Moves: loadMoves},
	{Name: "candle.train_s", Unit: "s", Better: "lower", Layer: "candle", Moves: "run_s, train_samples_per_s on nt3_compute, p1b1_f32"},
	{Name: "candle.compute_s", Unit: "s", Better: "lower", Layer: "candle", Moves: "run_s, train_samples_per_s on nt3_compute, p1b1_f32"},
	{Name: "candle.eval_s", Unit: "s", Better: "lower", Layer: "candle", Moves: "run_s on every training workload (small share)"},
	{Name: "candle.first_epoch_s", Unit: "s", Better: "lower", Layer: "candle", Moves: "time_to_target_s on nt3_compute, p1b1_f32"},
	{Name: "candle.later_epoch_s", Unit: "s", Better: "lower", Layer: "candle", Moves: "time_to_target_s on nt3_compute, p1b1_f32"},
	{Name: "candle.unattributed_s", Unit: "s", Better: "lower", Layer: "candle", Moves: "run_s (budget remainder, expected < 5%)"},

	// csvio: the paper's three whole-file engines on one file.
	{Name: "csvio.naive.read_s", Unit: "s", Better: "lower", Layer: "csvio", Moves: "run_s on the naive-engine workloads (< 10% share)"},
	{Name: "csvio.chunked.read_s", Unit: "s", Better: "lower", Layer: "csvio", Moves: "none (reference point)"},
	{Name: "csvio.parallel.read_s", Unit: "s", Better: "lower", Layer: "csvio", Moves: "none (reference point)"},
	{Name: "csvio.bytes_read", Unit: "B", Better: "lower", Layer: "csvio", Moves: "none (exact count)"},
	{Name: "csvio.parse_errors", Unit: "count", Better: "lower", Layer: "csvio", Moves: "none (0)"},

	// dataload: the sharded loader on a 2-rank world, cold and warm.
	{Name: "dataload.cold_read_s", Unit: "s", Better: "lower", Layer: "dataload", Moves: "run_s on load_cold"},
	{Name: "dataload.mb_per_s_cold", Unit: "MB/s", Better: "higher", Layer: "dataload", Moves: "run_s on load_cold"},
	{Name: "dataload.warm_read_s", Unit: "s", Better: "lower", Layer: "dataload", Moves: "run_s on load_warm"},
	{Name: "dataload.cache_bytes", Unit: "B", Better: "lower", Layer: "dataload", Moves: "run_s on load_warm"},
	{Name: "dataload.cache_hit", Unit: "count", Better: "higher", Layer: "dataload", Moves: "none (0 cold, = ranks warm)"},
	{Name: "dataload.serial_fallback", Unit: "count", Better: "lower", Layer: "dataload", Moves: "none (0)"},

	// data: preprocessing after the read, and input generation.
	{Name: "data.from_raw_s", Unit: "s", Better: "lower", Layer: "data", Moves: "run_s on load_cold, load_warm"},
	{Name: "data.generate_s", Unit: "s", Better: "lower", Layer: "data", Moves: "setup_s"},

	// tensor: the dominant matmul shapes of the workload's model.
	{Name: "tensor.matmul_f64_gflops", Unit: "GFLOP/s", Better: "higher", Layer: "tensor", Moves: "run_s on nt3_compute, load_cold, load_warm, comm_unix"},
	{Name: "tensor.tmatmul_f64_gflops", Unit: "GFLOP/s", Better: "higher", Layer: "tensor", Moves: "run_s on nt3_compute, load_cold, load_warm, comm_unix"},
	{Name: "tensor.matmul_f32_gflops", Unit: "GFLOP/s", Better: "higher", Layer: "tensor", Moves: "run_s on p1b1_f32; latency_p50_ms on serve_open"},
	{Name: "tensor.tmatmul_f32_gflops", Unit: "GFLOP/s", Better: "higher", Layer: "tensor", Moves: "run_s on p1b1_f32"},
	{Name: "tensor.workers", Unit: "count", Better: "higher", Layer: "tensor", Moves: "none (kernel worker budget seen inside the run)"},
	{Name: "tensor.mallocs_per_step", Unit: "count", Better: "lower", Layer: "tensor", Moves: "process.alloc_mb"},

	// nn: per-layer-kind time of one training step at the workload's batch.
	{Name: "nn.conv1d.forward_s", Unit: "s", Better: "lower", Layer: "nn", Moves: nt3Moves},
	{Name: "nn.conv1d.backward_s", Unit: "s", Better: "lower", Layer: "nn", Moves: nt3Moves},
	{Name: "nn.pool.forward_s", Unit: "s", Better: "lower", Layer: "nn", Moves: nt3Moves},
	{Name: "nn.pool.backward_s", Unit: "s", Better: "lower", Layer: "nn", Moves: nt3Moves},
	{Name: "nn.dense.forward_s", Unit: "s", Better: "lower", Layer: "nn", Moves: denseMoves},
	{Name: "nn.dense.backward_s", Unit: "s", Better: "lower", Layer: "nn", Moves: denseMoves},
	{Name: "nn.activation.forward_s", Unit: "s", Better: "lower", Layer: "nn", Moves: denseMoves},
	{Name: "nn.activation.backward_s", Unit: "s", Better: "lower", Layer: "nn", Moves: denseMoves},
	{Name: "nn.step_s", Unit: "s", Better: "lower", Layer: "nn", Moves: "run_s, train_samples_per_s on every training workload"},
	{Name: "nn.optimizer_s", Unit: "s", Better: "lower", Layer: "nn", Moves: commMoves + " (dominant at batch 4 on 2 M parameters)"},
	{Name: "nn.evaluate_s", Unit: "s", Better: "lower", Layer: "nn", Moves: "candle.eval_s"},
	{Name: "nn.layer_sum_share", Unit: "ratio", Better: "higher", Layer: "nn", Moves: "none (budget remainder of a step; flagged below 0.75)"},

	// mpi: collectives on a 2-rank in-process world.
	{Name: "mpi.inproc.allreduce_large_s", Unit: "s", Better: "lower", Layer: "mpi", Moves: "run_s on load_cold, load_warm (small share)"},
	{Name: "mpi.inproc.allreduce_small_s", Unit: "s", Better: "lower", Layer: "mpi", Moves: "run_s on load_cold, load_warm (small share)"},
	{Name: "mpi.inproc.broadcast_s", Unit: "s", Better: "lower", Layer: "mpi", Moves: "run_s on load_cold, load_warm (small share)"},
	{Name: "mpi.bytes_per_allreduce", Unit: "B", Better: "lower", Layer: "mpi", Moves: "none (exact count)"},
	{Name: "mpi.messages_per_allreduce", Unit: "count", Better: "lower", Layer: "mpi", Moves: "none (exact count)"},

	// transport / launch: the same collectives over real sockets.
	{Name: "transport.unix.allreduce_large_s", Unit: "s", Better: "lower", Layer: "transport", Moves: commMoves},
	{Name: "transport.unix.allreduce_small_s", Unit: "s", Better: "lower", Layer: "transport", Moves: commMoves},
	{Name: "transport.tcp.allreduce_large_s", Unit: "s", Better: "lower", Layer: "transport", Moves: "none (reference point)"},
	{Name: "launch.rendezvous_s", Unit: "s", Better: "lower", Layer: "launch", Moves: commMoves},

	// horovod: rank 0 of the traced run's timeline.
	{Name: "horovod.negotiate_broadcast_s", Unit: "s", Better: "lower", Layer: "horovod", Moves: commMoves},
	{Name: "horovod.broadcast_s", Unit: "s", Better: "lower", Layer: "horovod", Moves: commMoves},
	{Name: "horovod.negotiate_allreduce_s", Unit: "s", Better: "lower", Layer: "horovod", Moves: commMoves},
	{Name: "horovod.allreduce_s", Unit: "s", Better: "lower", Layer: "horovod", Moves: commMoves},
	{Name: "horovod.allreduce_overlap_s", Unit: "s", Better: "higher", Layer: "horovod", Moves: commMoves},
	{Name: "horovod.queue_wait_s", Unit: "s", Better: "lower", Layer: "horovod", Moves: commMoves},
	{Name: "horovod.overlap_fraction", Unit: "ratio", Better: "higher", Layer: "horovod", Moves: commMoves + "; hides the exchange only while the remaining backward outlasts it"},
	{Name: "horovod.allreduce_calls", Unit: "count", Better: "lower", Layer: "horovod", Moves: "none (exact count)"},
	{Name: "horovod.collective_share", Unit: "ratio", Better: "lower", Layer: "horovod", Moves: commMoves + "; a faster exchange saves at most this share"},

	// checkpoint.
	{Name: "checkpoint.save_s", Unit: "s", Better: "lower", Layer: "checkpoint", Moves: "setup_s on serve_open, fleet_closed"},
	{Name: "checkpoint.load_s", Unit: "s", Better: "lower", Layer: "checkpoint", Moves: "latency_p99_ms on fleet_closed (reloads)"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower", Layer: "checkpoint", Moves: "checkpoint.save_s, checkpoint.load_s"},

	// serve.
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p50_ms on serve_open"},
	{Name: "serve.queue_wait_ms_p99", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p99_ms on serve_open"},
	{Name: "serve.service_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p50_ms on serve_open"},
	{Name: "serve.batch_rows_mean", Unit: "count", Better: "higher", Layer: "serve", Moves: "larger raises throughput_rps and latency_p50_ms on serve_open"},
	{Name: "serve.requests", Unit: "count", Better: "higher", Layer: "serve", Moves: "none (exact count)"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Layer: "serve", Moves: "failed on serve_open"},
	{Name: "serve.rate_low.latency_p99_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "none (low fixed rate)"},
	{Name: "serve.rate_high.latency_p99_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "throughput_rps on serve_open"},
	{Name: "serve.max_rate_within_limit_rps", Unit: "1/s", Better: "higher", Layer: "serve", Moves: "throughput_rps on serve_open"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p50_ms, throughput_rps on fleet_closed"},
	{Name: "serve.reload_s", Unit: "s", Better: "lower", Layer: "serve", Moves: "latency_p99_ms on fleet_closed"},

	// fleet.
	{Name: "fleet.proxy_overhead_ms", Unit: "ms", Better: "lower", Layer: "fleet", Moves: "latency_p50_ms, throughput_rps on fleet_closed"},
	{Name: "fleet.reload_s", Unit: "s", Better: "lower", Layer: "fleet", Moves: "latency_p99_ms on fleet_closed"},
	{Name: "fleet.reload_window_latency_p99_ms", Unit: "ms", Better: "lower", Layer: "fleet", Moves: "latency_p99_ms on fleet_closed"},
	{Name: "fleet.proxied", Unit: "count", Better: "higher", Layer: "fleet", Moves: "none (exact count, = sum of replica requests)"},
	{Name: "fleet.failovers", Unit: "count", Better: "lower", Layer: "fleet", Moves: "none (0)"},
	{Name: "fleet.register_s", Unit: "s", Better: "lower", Layer: "fleet", Moves: "none (once per replica)"},
	{Name: "fleet.replica_imbalance", Unit: "ratio", Better: "lower", Layer: "fleet", Moves: "latency_p99_ms on fleet_closed"},

	// trace, power, process, bench: the measurement itself.
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "none (traced run_s / untraced - 1)"},
	{Name: "trace.events", Unit: "count", Better: "lower", Layer: "trace", Moves: "trace.overhead_share"},
	{Name: "power.modeled_energy_j", Unit: "J", Better: "lower", Layer: "power", Moves: "none (modeled from the phase split, never gated)"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "process", Moves: "none"},
	{Name: "process.alloc_mb", Unit: "MB", Better: "lower", Layer: "process", Moves: "process.gc_cycles"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower", Layer: "process", Moves: "latency_p99_ms on serve_open, fleet_closed"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "process", Moves: "latency_p99_ms on serve_open, fleet_closed"},
	{Name: "bench.generator_lag_ms_p99", Unit: "ms", Better: "lower", Layer: "bench", Moves: "none (how late the open-loop generator ran)"},
	{Name: "bench.generator_skipped", Unit: "count", Better: "lower", Layer: "bench", Moves: "none (arrivals a stalled generator dropped from the schedule)"},
	{Name: "bench.host_reference_ms", Unit: "ms", Better: "lower", Layer: "bench", Moves: "every end-to-end metric on every workload (the host's speed; the scale is anchored at 4.0)"},
	{Name: "bench.repeat_iqr_share", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "none (largest IQR / median among the timed repeats' metrics)"},
}

// The serving limits, and the load serve_open offers.
//
// tailLimitMs is the limit on the tail percentile: a rate is "within
// the limit" (serve.max_rate_within_limit_rps) when the tail stays under
// it with nothing failed and no backlog left growing.
// requestDeadlineMs is when a single answer is too late to count: ten
// times the tail limit, a client's time-out. It is not the tail limit
// itself because this host stalls a process for 20-100 ms now and then
// whatever it runs, and a failed operation must mean the system's own.
//
// The three rates are constants, fractions of the capacity measured
// once at the commit that defined the benchmark (README, "serve_open"),
// and are never re-calibrated per run: a slower system is offered the
// same load and falls behind it. saturationInFlight requests
// outstanding are enough to keep both replicas' batches full.
const (
	tailLimitMs        = 50.0
	requestDeadlineMs  = 500.0
	rateLow            = 5000.0
	rateMid            = 10000.0
	rateHigh           = 15000.0
	saturationInFlight = 64
	saturationRequests = 8000
)

// modelSeed pins weight initialisation. --seed drives every generated
// input (CSV contents, request rows, arrival schedule); the init seed
// is a setting of the program under test, held constant so that the
// epoch at which a run crosses its target does not depend on --seed
// (README, "Findings").
const modelSeed = 11

// workload is one named set of inputs.
type workload struct {
	Name string
	Why  string
	// serving says which kind of end-to-end metric the workload was
	// built for: the serving three, or (false) the training three.
	serving bool
	run     func(*runCtx) error
}

// builtFor reports whether the workload exists to measure the metric,
// as opposed to borrowing it from a small second phase.
func (w *workload) builtFor(name string) bool {
	kind := trainingMetrics
	if w.serving {
		kind = servingMetrics
	}
	for _, n := range kind {
		if n == name {
			return true
		}
	}
	return name == "setup_s"
}

var workloads = []workload{
	{Name: "nt3_compute", run: trainWorkload(nt3Compute),
		Why: "NT3 conv net, 1 rank, f64: Conv1D/pool and f64 kernels do the work, load under 5%, no collectives"},
	{Name: "p1b1_f32", run: trainWorkload(p1b1F32),
		Why: "P1B1 dense autoencoder, 1 rank, f32: the packed f32 path does the work; twin of the f64 path nt3_compute uses"},
	{Name: "load_cold", run: trainWorkload(loadCold),
		Why: "P1B2 wide CSV, 2 ranks, sharded engine, empty cache: parse + exchange + cache write are about half the run"},
	{Name: "load_warm", run: trainWorkload(loadWarm),
		Why: "load_cold with the cache pre-filled: same loader used the other way (cache read, no parse)"},
	{Name: "comm_unix", run: trainWorkload(commUnix),
		Why: "P1B1 batch 4, 2 procs over unix sockets, overlap on: a 16 MB allreduce per step, the largest collective share"},
	{Name: "serve_open", serving: true, run: serveOpen,
		Why: "one in-process server, open-loop Poisson arrivals at fixed rates: batcher, queue and batched forward; no HTTP"},
	{Name: "fleet_closed", serving: true, run: fleetClosed,
		Why: "router + 2 replicas over loopback HTTP, 2 closed-loop connections, 2 reloads under load: proxy hop and HTTP codec"},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// describe renders BENCHMARK.json from the tables above, so that the
// contract at the repository root cannot drift from what the program
// prints; bench_test.go compares the two.
func describe() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, unbounded{m.Name, m.Unit, m.Better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and finite numbers
	}
	return append(raw, '\n')
}
