// Package sim predicts runtime, power, energy, accuracy, and
// communication timelines for the Horovod CANDLE benchmarks at any
// scale on the Summit and Theta machine models — the experiments the
// paper ran on real hardware that a pure-Go laptop environment cannot.
//
// The simulator is an analytic cost model with a virtual clock, not a
// guess: every constant in this file is calibrated against a number
// the paper reports (Tables 1–6, Figures 6–21, and in-text values such
// as "around 153 s" of data loading on 384 GPUs or "695 s per epoch"
// on Theta), and the mechanisms — contention-scaled loading, ring
// allreduce, negotiation that waits on loading stragglers — mirror the
// real implementations in internal/mpi, internal/horovod, and
// internal/csvio, which tests cross-validate at small scale.
package sim

import (
	"fmt"
	"math"
	"strings"
)

// StepCal calibrates one benchmark's per-batch-step compute time on
// one machine. At the default batch size B₀ a step costs
// Overhead + PerSample×B₀; other batch sizes scale the sample term by
// (B/B₀)^BatchEffExp — sublinear, because larger batches use the
// device more efficiently (this is what makes linear batch scaling
// the fastest strategy in Figure 10a). NegotiateScale adjusts the
// per-step Horovod negotiation overhead for models with few/small
// tensors (P1B3's 1.6M-parameter MLP negotiates far less than NT3's
// convnet).
type StepCal struct {
	Overhead       float64
	PerSample      float64
	NegotiateScale float64 // 0 means 1
}

// BatchEffExp is the device-efficiency exponent for batch scaling.
const BatchEffExp = 0.45

// StepTime returns the compute seconds for one batch step of the
// given size.
func (s StepCal) StepTime(defaultBatch, batch int) float64 {
	if batch <= 0 || defaultBatch <= 0 {
		return s.Overhead
	}
	ratio := float64(batch) / float64(defaultBatch)
	return s.Overhead + s.PerSample*float64(defaultBatch)*math.Pow(ratio, BatchEffExp)
}

func (s StepCal) negotiateScale() float64 {
	if s.NegotiateScale == 0 {
		return 1
	}
	return s.NegotiateScale
}

// LoadCal calibrates data-loading seconds for one benchmark's
// train/test files on one machine, per loader engine, at one rank
// (Tables 3 and 4 verbatim). Parallel (Dask-like) numbers sit between
// the two, as the paper describes.
type LoadCal struct {
	NaiveTrain, NaiveTest       float64
	ChunkTrain, ChunkTest       float64
	ParallelTrain, ParallelTest float64
	// PreprocessS is the CPU-side preprocessing after parsing (frame →
	// feature/label arrays); the same for every loader engine, so the
	// chunked reader does not improve it.
	PreprocessS float64
	// JitterNaive/JitterChunked scale the straggler spread of loading
	// completion across ranks; the broadcast negotiation cannot finish
	// before the slowest rank arrives, so broadcast overhead ≈
	// jitter × loading time (Figures 7b, 12, 19).
	JitterNaive, JitterChunked float64
}

// PowerCal is the per-device phase power for one benchmark on one
// machine (watts). ComputeExp shapes the mild drop in compute power at
// larger batch sizes that Table 2 shows: W(B) = Compute ×
// (defaultBatch/B)^ComputeExp.
type PowerCal struct {
	Idle, Load, Bcast, Compute float64
	ComputeExp                 float64
}

// BenchCal is everything the cost models need to know about one
// benchmark, independent of machine.
type BenchCal struct {
	Name          string
	TrainSamples  int
	TestSamples   int
	DefaultBatch  int
	DefaultEpochs int
	LearningRate  float64
	Optimizer     string
	TrainFileMB   int
	TestFileMB    int
	// ParamsM is the model size in millions of parameters (the
	// allreduce payload).
	ParamsM float64
	// Accuracy learning-curve parameters (see Accuracy).
	AccMin, AccMax, AccS0, AccTau float64
	// BatchPenalty is the accuracy lost per doubling of batch size
	// above the default (large-batch generalization gap).
	BatchPenalty float64
	// Loss curve for loss-reporting benchmarks (P1B1).
	LossFloor, LossAmp, LossTau float64
	// Memory model: footprint(B) = MemFixedGB + B×MemPerSampleGB;
	// exceeding device memory is the "failed execution" of Figure 10.
	MemFixedGB, MemPerSampleGB float64
	// Classification is false for P1B1 (loss) and P1B3 (regression
	// score reported as accuracy in Figure 10).
	Classification bool
}

// StepsPerEpoch returns S/B, the paper's batch steps per epoch.
func (b BenchCal) StepsPerEpoch(batch int) int {
	if batch <= 0 {
		return 0
	}
	return b.TrainSamples / batch
}

// Accuracy evaluates the calibrated learning curve: a saturating
// function of the total effective optimization steps
// (epochsPerRank × S/B) with a large-batch penalty. Calibrated so NT3
// reaches ≈1.0 at ≥8 epochs/GPU with batch 20 and collapses at ≤4
// (Figure 6b), P1B2 needs ≥16 epochs/GPU (Figure 9b), and P1B3 peaks
// at ≈0.658 with cubic-root batch scaling on 48 GPUs (Figure 10b).
func (b BenchCal) Accuracy(epochsPerRank, batch int) float64 {
	steps := float64(epochsPerRank) * float64(b.TrainSamples) / float64(batch)
	acc := b.AccMin
	if steps > b.AccS0 {
		acc += (b.AccMax - b.AccMin) * (1 - math.Exp(-(steps-b.AccS0)/b.AccTau))
	}
	if batch > b.DefaultBatch && b.BatchPenalty > 0 {
		acc -= b.BatchPenalty * math.Log2(float64(batch)/float64(b.DefaultBatch))
	}
	return math.Max(0, math.Min(1, acc))
}

// Loss evaluates the calibrated training-loss curve (P1B1, Figure 8b).
func (b BenchCal) Loss(epochsPerRank, batch int) float64 {
	steps := float64(epochsPerRank) * float64(b.TrainSamples) / float64(batch)
	loss := b.LossFloor + b.LossAmp*math.Exp(-steps/b.LossTau)
	if batch > b.DefaultBatch {
		loss += 0.004 * math.Log2(float64(batch)/float64(b.DefaultBatch))
	}
	return loss
}

// FitsMemory reports whether a batch fits in deviceMemGB.
func (b BenchCal) FitsMemory(batch int, deviceMemGB float64) bool {
	return b.MemFixedGB+float64(batch)*b.MemPerSampleGB <= deviceMemGB
}

// MachineCal collects the per-machine calibration keyed by benchmark
// name.
type MachineCal struct {
	Name string
	// NegotiateBase and NegotiateExp shape the per-step Horovod
	// negotiation overhead: NegotiateBase × log2(N)^NegotiateExp
	// seconds per batch step. Calibrated so NT3's time/epoch rises
	// 10.3→≈22 s from 1→384 GPUs on Summit (Table 2), reaches ≈3× the
	// sequential epoch at 3,072 GPUs (Table 6), and 695→965 s from
	// 24→384 nodes on Theta.
	NegotiateBase float64
	NegotiateExp  float64
	// EvalFrac sizes the prediction/evaluation phase as a fraction of
	// one compute epoch.
	EvalFrac float64
	Step     map[string]StepCal
	Load     map[string]LoadCal
	Power    map[string]PowerCal
}

// Benchmarks returns the calibration for the four P1 benchmarks
// (paper Table 1 plus fitted learning/memory curves).
//
// Deprecated for configuration choice: code picking a run
// configuration should go through advisor.Recommend, which sweeps this
// table through the simulator. Direct access to the hyperparameter
// cards remains supported.
func Benchmarks() []BenchCal {
	return []BenchCal{
		{
			Name: "NT3", TrainSamples: 1120, TestSamples: 280,
			DefaultBatch: 20, DefaultEpochs: 384, LearningRate: 0.001, Optimizer: "sgd",
			TrainFileMB: 597, TestFileMB: 150, ParamsM: 15,
			AccMin: 0.5, AccMax: 0.998, AccS0: 180, AccTau: 60, BatchPenalty: 0.01,
			MemFixedGB: 0.8, MemPerSampleGB: 0.31,
			Classification: true,
		},
		{
			Name: "P1B1", TrainSamples: 2700, TestSamples: 900,
			DefaultBatch: 100, DefaultEpochs: 384, LearningRate: 0.001, Optimizer: "adam",
			TrainFileMB: 771, TestFileMB: 258, ParamsM: 121,
			AccMin: 0, AccMax: 0, AccS0: 0, AccTau: 1,
			LossFloor: 0.015, LossAmp: 0.35, LossTau: 3000,
			MemFixedGB: 1.2, MemPerSampleGB: 0.09,
		},
		{
			Name: "P1B2", TrainSamples: 2700, TestSamples: 900,
			DefaultBatch: 60, DefaultEpochs: 768, LearningRate: 0.001, Optimizer: "rmsprop",
			TrainFileMB: 162, TestFileMB: 55, ParamsM: 30,
			AccMin: 0.1, AccMax: 0.92, AccS0: 300, AccTau: 130, BatchPenalty: 0.012,
			MemFixedGB: 0.6, MemPerSampleGB: 0.05,
			Classification: true,
		},
		{
			Name: "P1B3", TrainSamples: 900100, TestSamples: 291500,
			DefaultBatch: 100, DefaultEpochs: 1, LearningRate: 0.001, Optimizer: "sgd",
			TrainFileMB: 318, TestFileMB: 103, ParamsM: 1.6,
			AccMin: 0.25, AccMax: 0.681, AccS0: 100, AccTau: 700, BatchPenalty: 0.005,
			MemFixedGB: 0.5, MemPerSampleGB: 0.00082,
			Classification: true,
		},
	}
}

// BenchByName returns one benchmark's calibration. Unknown names
// yield an *UnknownBenchmarkError naming the valid choices.
//
// Deprecated for configuration choice: see Benchmarks.
func BenchByName(name string) (BenchCal, error) {
	for _, b := range Benchmarks() {
		if b.Name == name {
			return b, nil
		}
	}
	return BenchCal{}, &UnknownBenchmarkError{Name: name, Known: BenchNames()}
}

// BenchNames lists the benchmark names in paper order.
func BenchNames() []string {
	bs := Benchmarks()
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

// UnknownBenchmarkError reports a name with no calibration, along with
// the names that would have worked — the registry-style error the CSV
// engine registry uses, so a flag typo is fixable from the message
// alone.
type UnknownBenchmarkError struct {
	Name  string
	Known []string
}

func (e *UnknownBenchmarkError) Error() string {
	return fmt.Sprintf("sim: unknown benchmark %q (valid: %s)", e.Name, strings.Join(e.Known, ", "))
}

// SummitCal returns the Summit-side calibration. Load numbers are
// Table 3 verbatim; step costs reproduce NT3's ≈10.3 s/epoch at batch
// 20 on one V100.
func SummitCal() MachineCal {
	return MachineCal{
		Name:          "Summit",
		NegotiateBase: 0.000581,
		NegotiateExp:  2.75,
		EvalFrac:      0.10,
		Step: map[string]StepCal{
			"NT3":  {Overhead: 0.090, PerSample: 0.0047},
			"P1B1": {Overhead: 0.100, PerSample: 0.00244},
			"P1B2": {Overhead: 0.020, PerSample: 0.00051, NegotiateScale: 0.4},
			"P1B3": {Overhead: 0.0005, PerSample: 0.00002, NegotiateScale: 0.03},
		},
		Load: map[string]LoadCal{
			"NT3": {NaiveTrain: 81.72, NaiveTest: 22.25, ChunkTrain: 14.30, ChunkTest: 5.25,
				ParallelTrain: 38.1, ParallelTest: 11.9, PreprocessS: 10, JitterNaive: 0.33, JitterChunked: 0.19},
			"P1B1": {NaiveTrain: 235.68, NaiveTest: 80.77, ChunkTrain: 30.99, ChunkTest: 14.47,
				ParallelTrain: 95.2, ParallelTest: 37.4, PreprocessS: 20, JitterNaive: 0.33, JitterChunked: 0.19},
			"P1B2": {NaiveTrain: 40.98, NaiveTest: 15.95, ChunkTrain: 11.03, ChunkTest: 5.33,
				ParallelTrain: 23.1, ParallelTest: 9.8, PreprocessS: 6, JitterNaive: 0.33, JitterChunked: 0.19},
			"P1B3": {NaiveTrain: 5.41, NaiveTest: 3.20, ChunkTrain: 5.34, ChunkTest: 2.52,
				ParallelTrain: 5.38, ParallelTest: 2.9, PreprocessS: 8, JitterNaive: 0.33, JitterChunked: 0.19},
		},
		Power: map[string]PowerCal{
			"NT3":  {Idle: 40, Load: 70, Bcast: 72, Compute: 135, ComputeExp: 0.12},
			"P1B1": {Idle: 40, Load: 85, Bcast: 85, Compute: 90, ComputeExp: 0.12},
			"P1B2": {Idle: 40, Load: 82, Bcast: 82, Compute: 85, ComputeExp: 0.12},
			"P1B3": {Idle: 40, Load: 55, Bcast: 58, Compute: 235, ComputeExp: 0.12},
		},
	}
}

// ThetaCal returns the Theta-side calibration. Load numbers are
// Table 4 verbatim; step costs reproduce the 695→965 s/epoch trend
// the paper reports for NT3 from 24→384 nodes.
func ThetaCal() MachineCal {
	return MachineCal{
		Name:          "Theta",
		NegotiateBase: 0.0159,
		NegotiateExp:  2.75,
		EvalFrac:      0.10,
		Step: map[string]StepCal{
			"NT3":  {Overhead: 5.70, PerSample: 0.2833},
			"P1B1": {Overhead: 1.80, PerSample: 0.022},
			"P1B2": {Overhead: 0.64, PerSample: 0.0218, NegotiateScale: 0.4},
			"P1B3": {Overhead: 0.032, PerSample: 0.0013, NegotiateScale: 0.03},
		},
		Load: map[string]LoadCal{
			"NT3": {NaiveTrain: 52.91, NaiveTest: 13.93, ChunkTrain: 13.84, ChunkTest: 3.62,
				ParallelTrain: 27.5, ParallelTest: 7.3, PreprocessS: 12, JitterNaive: 0.28, JitterChunked: 0.17},
			"P1B1": {NaiveTrain: 139.71, NaiveTest: 48.38, ChunkTrain: 27.43, ChunkTest: 11.67,
				ParallelTrain: 63.4, ParallelTest: 24.1, PreprocessS: 24, JitterNaive: 0.28, JitterChunked: 0.17},
			"P1B2": {NaiveTrain: 25.07, NaiveTest: 9.56, ChunkTrain: 9.53, ChunkTest: 4.40,
				ParallelTrain: 15.8, ParallelTest: 6.6, PreprocessS: 7, JitterNaive: 0.28, JitterChunked: 0.17},
			"P1B3": {NaiveTrain: 4.74, NaiveTest: 2.79, ChunkTrain: 4.53, ChunkTest: 2.49,
				ParallelTrain: 4.65, ParallelTest: 2.6, PreprocessS: 9, JitterNaive: 0.28, JitterChunked: 0.17},
		},
		Power: map[string]PowerCal{
			"NT3":  {Idle: 70, Load: 95, Bcast: 100, Compute: 135, ComputeExp: 0.08},
			"P1B1": {Idle: 70, Load: 95, Bcast: 100, Compute: 110, ComputeExp: 0.08},
			"P1B2": {Idle: 70, Load: 95, Bcast: 100, Compute: 105, ComputeExp: 0.08},
			"P1B3": {Idle: 70, Load: 95, Bcast: 100, Compute: 200, ComputeExp: 0.08},
		},
	}
}

// CalFor returns the calibration for an hpc machine name.
func CalFor(machineName string) (MachineCal, error) {
	switch machineName {
	case "Summit", "summit":
		return SummitCal(), nil
	case "Theta", "theta":
		return ThetaCal(), nil
	default:
		return MachineCal{}, fmt.Errorf("sim: no calibration for machine %q", machineName)
	}
}
