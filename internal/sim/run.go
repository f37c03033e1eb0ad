package sim

import (
	"errors"
	"fmt"
	"math"

	"candle/internal/hpc"
	"candle/internal/power"
	"candle/internal/trace"
)

// Loader selects the data-loading engine a simulated run uses.
type Loader int

// Loader engines, matching internal/csvio's readers.
const (
	LoaderNaive Loader = iota // pandas.read_csv, low_memory=True
	LoaderChunked
	LoaderParallel
)

func (l Loader) String() string {
	switch l {
	case LoaderNaive:
		return "naive"
	case LoaderChunked:
		return "chunked"
	case LoaderParallel:
		return "parallel"
	default:
		return fmt.Sprintf("loader(%d)", int(l))
	}
}

// LoaderByName maps a loader name ("naive", "chunked", "parallel")
// back to its enum — the flag-parsing inverse of String, shared by the
// CLIs instead of each keeping its own switch.
func LoaderByName(name string) (Loader, error) {
	for _, l := range []Loader{LoaderNaive, LoaderChunked, LoaderParallel} {
		if l.String() == name {
			return l, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown loader %q (valid: naive, chunked, parallel)", name)
}

// Scaling selects how total work maps onto ranks.
type Scaling int

// Scaling strategies from Figure 4(a).
const (
	// Strong keeps the total number of epochs constant and divides
	// them over ranks (the paper's comp_epochs, balanced variant).
	Strong Scaling = iota
	// Weak keeps the epochs per rank constant.
	Weak
)

func (s Scaling) String() string {
	if s == Strong {
		return "strong"
	}
	return "weak"
}

// ErrOutOfMemory marks a configuration whose per-device activation
// footprint exceeds device memory (the paper's "failed execution" for
// NT3 at batch ≥50 and P1B3's linear scaling at 192/384 GPUs).
var ErrOutOfMemory = errors.New("sim: device out of memory")

// Config is one simulated run.
type Config struct {
	Machine hpc.Machine
	Bench   BenchCal
	// Ranks is the number of workers (GPUs on Summit, nodes on Theta).
	Ranks int
	// Scaling chooses strong (divide Epochs over ranks) or weak
	// (Epochs per rank).
	Scaling Scaling
	// Epochs is the total epoch budget under Strong scaling, or the
	// per-rank epochs under Weak scaling. 0 means the benchmark's
	// default total.
	Epochs int
	// Batch is the per-worker batch size; 0 means the default.
	Batch int
	// Loader is the data-loading engine.
	Loader Loader
	// Timeline, when non-nil, receives Horovod-style events for the
	// first TimelineRanks ranks (0 means 8).
	Timeline      *trace.Timeline
	TimelineRanks int
}

// NewConfig resolves the machine, benchmark and loader names that a
// command line or one of the paper's experiments gives into a Config
// holding those three; the caller sets the rest.
func NewConfig(bench, machine, loader string) (Config, error) {
	m, err := hpc.ByName(machine)
	if err != nil {
		return Config{}, err
	}
	b, err := BenchByName(bench)
	if err != nil {
		return Config{}, err
	}
	ld, err := LoaderByName(loader)
	if err != nil {
		return Config{}, err
	}
	return Config{Machine: m, Bench: b, Loader: ld}, nil
}

// Result is everything a simulated run produces.
type Result struct {
	Config        Config
	EpochsPerRank int
	Batch         int
	StepsPerEpoch int

	// Phase durations in seconds, from the observed rank's (rank 0's)
	// perspective, as the paper's measurements are: LoadTime is rank
	// 0's loading (single-rank parse × contention + preprocessing);
	// stragglers finish up to the jitter spread later, and that wait
	// lands in BroadcastTime's negotiation component.
	LoadTime      float64 // rank 0's data loading (train+test)
	BroadcastTime float64 // negotiation (straggler wait) + tree broadcast
	TrainTime     float64 // epochs × (compute + allreduce)
	EvalTime      float64
	TotalTime     float64

	// TimePerEpoch includes the per-step communication overhead — the
	// quantity in the paper's Tables 2 and 6.
	TimePerEpoch float64
	// ComputePerEpoch excludes communication.
	ComputePerEpoch float64

	// Accuracy holds the calibrated training accuracy (classification
	// benchmarks); Loss holds the training loss (P1B1).
	Accuracy float64
	Loss     float64

	// AvgPowerW and EnergyJ are per device; TotalEnergyJ sums all
	// devices. Profile is the representative device's phase profile.
	AvgPowerW    float64
	EnergyJ      float64
	TotalEnergyJ float64
	Profile      power.Profile
	PowerModel   power.Model
}

// Run simulates one configuration. It is pure and deterministic.
func Run(cfg Config) (*Result, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("sim: ranks must be positive, got %d", cfg.Ranks)
	}
	if cfg.Epochs < 0 {
		return nil, fmt.Errorf("sim: epochs must not be negative (0 is the default), got %d", cfg.Epochs)
	}
	if cfg.Batch < 0 {
		return nil, fmt.Errorf("sim: batch must not be negative (0 is the default), got %d", cfg.Batch)
	}
	if cfg.Ranks > cfg.Machine.MaxDevices() {
		return nil, fmt.Errorf("sim: %d ranks exceed %s's %d devices",
			cfg.Ranks, cfg.Machine.Name, cfg.Machine.MaxDevices())
	}
	cal, err := CalFor(cfg.Machine.Name)
	if err != nil {
		return nil, err
	}
	b := cfg.Bench
	step, ok := cal.Step[b.Name]
	if !ok {
		return nil, fmt.Errorf("sim: no step calibration for %s on %s", b.Name, cal.Name)
	}
	load := cal.Load[b.Name]
	pw := cal.Power[b.Name]

	batch := cfg.Batch
	if batch <= 0 {
		batch = b.DefaultBatch
	}
	if !b.FitsMemory(batch, cfg.Machine.Device.MemGB) {
		return nil, fmt.Errorf("%w: %s batch %d needs %.1f GB > %.0f GB on %s",
			ErrOutOfMemory, b.Name, batch,
			b.MemFixedGB+float64(batch)*b.MemPerSampleGB,
			cfg.Machine.Device.MemGB, cfg.Machine.Device.Name)
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = b.DefaultEpochs
	}
	perRank := epochs
	if cfg.Scaling == Strong {
		perRank = epochs / cfg.Ranks
		if perRank == 0 {
			perRank = 1
		}
	}
	stepsPerEpoch := b.StepsPerEpoch(batch)
	if stepsPerEpoch == 0 {
		return nil, fmt.Errorf("sim: batch %d larger than %d samples", batch, b.TrainSamples)
	}

	// --- Data loading: single-rank parse time × filesystem
	// contention, plus CPU-side preprocessing (engine-independent).
	loadOne := loaderTime(load, cfg.Loader)
	loadTime := loadOne*cfg.Machine.FS.Contention(cfg.Ranks) + load.PreprocessS

	// --- Broadcast: straggler spread (the negotiation waits for the
	// slowest loader) plus the binomial tree itself.
	jitter := load.JitterNaive
	if cfg.Loader != LoaderNaive {
		jitter = load.JitterChunked
	}
	spread := 0.0
	tree := treeBroadcastTime(cfg.Ranks, b.ParamsM, cfg.Machine.Net)
	if cfg.Ranks > 1 {
		spread = jitter * loadTime
	}
	broadcastTime := spread + tree

	// --- Training: per-step compute plus per-step allreduce.
	computeStep := step.StepTime(b.DefaultBatch, batch)
	commStep := AllreducePerStep(cfg.Ranks, b.ParamsM, step.negotiateScale(), cal, cfg.Machine.Net)
	computeEpoch := float64(stepsPerEpoch) * computeStep
	epochTime := float64(stepsPerEpoch) * (computeStep + commStep)
	trainTime := float64(perRank) * epochTime

	// --- Prediction/evaluation on the test split: a single forward
	// pass, sized as a calibrated fraction of one compute epoch.
	evalTime := cal.EvalFrac * computeEpoch

	total := loadTime + broadcastTime + trainTime + evalTime

	// --- Power profile for one device (the straggler-free view; all
	// devices are within the loading spread of each other).
	profile := power.Profile{
		{Start: 0, End: loadTime, Phase: power.DataLoad},
		{Start: loadTime, End: loadTime + broadcastTime, Phase: power.Broadcast},
		{Start: loadTime + broadcastTime, End: loadTime + broadcastTime + trainTime, Phase: power.Compute},
		{Start: loadTime + broadcastTime + trainTime, End: total, Phase: power.Evaluate},
	}
	model := power.NewModel(pw.Idle, map[power.Phase]float64{
		power.DataLoad:  pw.Load,
		power.Broadcast: pw.Bcast,
		power.Compute:   computePower(pw, b.DefaultBatch, batch),
		power.Allreduce: pw.Bcast,
		power.Evaluate:  computePower(pw, b.DefaultBatch, batch) * 0.8,
	})
	energy := model.Energy(profile)

	res := &Result{
		Config:          cfg,
		EpochsPerRank:   perRank,
		Batch:           batch,
		StepsPerEpoch:   stepsPerEpoch,
		LoadTime:        loadTime,
		BroadcastTime:   broadcastTime,
		TrainTime:       trainTime,
		EvalTime:        evalTime,
		TotalTime:       total,
		TimePerEpoch:    epochTime,
		ComputePerEpoch: computeEpoch,
		AvgPowerW:       model.AveragePower(profile),
		EnergyJ:         energy,
		TotalEnergyJ:    energy * float64(cfg.Ranks),
		Profile:         profile,
		PowerModel:      model,
	}
	if b.Classification {
		res.Accuracy = b.Accuracy(perRank, batch)
	}
	if b.LossAmp > 0 {
		res.Loss = b.Loss(perRank, batch)
	}
	if cfg.Timeline != nil {
		emitTimeline(cfg, res, loadOne, spread, tree, computeEpoch, commStep, stepsPerEpoch)
	}
	return res, nil
}

// loaderTime returns the single-rank train+test loading seconds for
// the chosen engine.
func loaderTime(l LoadCal, loader Loader) float64 {
	switch loader {
	case LoaderChunked:
		return l.ChunkTrain + l.ChunkTest
	case LoaderParallel:
		return l.ParallelTrain + l.ParallelTest
	default:
		return l.NaiveTrain + l.NaiveTest
	}
}

// AllreducePerStep returns the per-batch-step communication overhead:
// the calibrated Horovod negotiation term (grows with log2 N, scaled
// per benchmark) plus the ring-allreduce transfer time for the
// model's gradients.
func AllreducePerStep(ranks int, paramsM, negotiateScale float64, cal MachineCal, net hpc.Interconnect) float64 {
	if ranks <= 1 {
		return 0
	}
	exp := cal.NegotiateExp
	if exp == 0 {
		exp = 1
	}
	negotiate := cal.NegotiateBase * negotiateScale * math.Pow(math.Log2(float64(ranks)), exp)
	return negotiate + ringTime(ranks, paramsM, net)
}

// ringTime is the classic ring-allreduce cost: 2(N−1)/N of the buffer
// crosses the wire twice, plus 2(N−1) latency hops.
func ringTime(ranks int, paramsM float64, net hpc.Interconnect) float64 {
	if ranks <= 1 {
		return 0
	}
	bytes := paramsM * 1e6 * 4 // fp32 gradients
	n := float64(ranks)
	bw := net.BandwidthGBps * 1e9 * net.CollectiveEff
	return 2*(n-1)/n*bytes/bw + 2*(n-1)*net.LatencyUS*1e-6
}

// treeBroadcastTime is the binomial-tree weight broadcast:
// ⌈log2 N⌉ rounds of (latency + payload/bandwidth).
func treeBroadcastTime(ranks int, paramsM float64, net hpc.Interconnect) float64 {
	if ranks <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(ranks)))
	bytes := paramsM * 1e6 * 4
	bw := net.BandwidthGBps * 1e9 * net.CollectiveEff
	return rounds * (net.LatencyUS*1e-6 + bytes/bw)
}

// computePower applies the calibrated batch-size power scaling.
func computePower(pw PowerCal, defaultBatch, batch int) float64 {
	if batch <= 0 || defaultBatch <= 0 {
		return pw.Compute
	}
	return pw.Compute * math.Pow(float64(defaultBatch)/float64(batch), pw.ComputeExp)
}

// emitTimeline writes Horovod-timeline events for the first few ranks:
// per-rank data loading (with the straggler spread), the broadcast
// negotiation and tree, then one compute + allreduce span per epoch —
// the "8 pieces of communication for 8 epochs" of Figure 19.
func emitTimeline(cfg Config, res *Result, loadOne, spread, tree, computeEpoch, commStep float64, stepsPerEpoch int) {
	tl := cfg.Timeline
	nshow := cfg.TimelineRanks
	if nshow <= 0 {
		nshow = 8
	}
	if nshow > cfg.Ranks {
		nshow = cfg.Ranks
	}
	dpn := cfg.Machine.DevicesPerNode
	for r := 0; r < nshow; r++ {
		// Rank r finishes loading spread×(r/(N−1)) later than rank 0.
		frac := 0.0
		if cfg.Ranks > 1 {
			frac = float64(r) / float64(cfg.Ranks-1)
		}
		loadEnd := res.LoadTime - spread + spread*frac
		pid, tid := r/dpn, r
		tl.Complete("data_loading", "io", pid, tid, 0, loadEnd)
		// Negotiation ends when the slowest rank (loadTime) arrives.
		negEnd := res.LoadTime
		tl.Complete("negotiate_broadcast", "broadcast", pid, tid, loadEnd, negEnd-loadEnd)
		tl.Complete("mpi_broadcast", "broadcast", pid, tid, negEnd, tree)
		t := res.LoadTime + res.BroadcastTime
		commEpoch := commStep * float64(stepsPerEpoch)
		for e := 0; e < res.EpochsPerRank && e < 16; e++ {
			tl.Complete("compute", "compute", pid, tid, t, computeEpoch)
			tl.Complete("negotiate_allreduce", "allreduce", pid, tid, t+computeEpoch, 0)
			tl.Complete("NCCL_allreduce", "allreduce", pid, tid, t+computeEpoch, commEpoch)
			t += computeEpoch + commEpoch
		}
	}
}
