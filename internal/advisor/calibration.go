package advisor

import (
	"math"

	"candle/internal/sim"
)

// Calibration is the data source Recommend sweeps: something that can
// resolve a benchmark, enumerate candidate configurations for a
// request, and predict each candidate's outcome. Two implementations
// exist — Analytic (the paper-calibrated internal/sim models, the
// historical behavior) and Measured (fitted from a BENCH_e2e.json this
// machine produced). The split is the API's point: "where do the
// numbers come from" is now a value you pass, not a package you import.
type Calibration interface {
	// Name identifies the source in reports ("analytic",
	// "measured BENCH_e2e.json").
	Name() string
	// Bench resolves the benchmark's calibration record. Unknown names
	// return a typed, actionable error listing the known ones
	// (sim.UnknownBenchmarkError or UnknownPilotError).
	Bench(name string) (sim.BenchCal, error)
	// Candidates enumerates the configurations to evaluate, in sweep
	// order. Order matters: better() uses a strict less-than, so the
	// earliest candidate wins ties.
	Candidates(bench sim.BenchCal, req Request) []Candidate
	// Predict evaluates one candidate. An error means the configuration
	// is not runnable (OOM and similar) and is skipped, not reported.
	Predict(req Request, bench sim.BenchCal, c Candidate) (Outcome, error)
}

// Candidate is one configuration a calibration can price.
type Candidate struct {
	Workers  int
	Batch    int
	Engine   string // loader/engine name ("naive", "chunked", "parallel", "sharded", ...)
	Strategy string // batch-scaling strategy ("fixed", "linear", "sqrt", "cbrt", "measured")
	Overlap  bool   // async gradient pipeline (measured grids only)
	DType    string // compute precision (measured grids only; "" = f64)
}

// Outcome is a calibration's prediction for one candidate.
type Outcome struct {
	TimeS    float64
	EnergyJ  float64
	Accuracy float64
	Loss     float64
}

// Analytic is the paper-calibrated simulator source: sim.BenchByName
// tables, sim.Run predictions. The zero value is ready to use and is
// what a nil Request.Calibration falls back to, so existing callers
// keep the exact historical sweep (same configurations, same order,
// same tie-breaks).
type Analytic struct{}

// Name implements Calibration.
func (Analytic) Name() string { return "analytic" }

// Bench implements Calibration via the sim calibration tables.
func (Analytic) Bench(name string) (sim.BenchCal, error) { return sim.BenchByName(name) }

// analyticLoaders is the historical loader sweep order; with better()'s
// strict less-than it decides ties, so it must not change.
var analyticLoaders = []sim.Loader{sim.LoaderNaive, sim.LoaderParallel, sim.LoaderChunked}

// workerSweep is the standard ladder of worker counts.
var workerSweep = []int{1, 6, 12, 24, 48, 96, 192, 384}

// Candidates implements Calibration: the legacy triple loop — worker
// ladder × loaders × strategies — in its original iteration order.
func (Analytic) Candidates(bench sim.BenchCal, req Request) []Candidate {
	maxWorkers := req.MaxWorkers
	if maxWorkers <= 0 {
		maxWorkers = 384
	}
	strategies := []string{"fixed"}
	if req.ScaleBatch {
		strategies = append(strategies, "linear", "sqrt", "cbrt")
	}
	var out []Candidate
	for _, n := range workerSweep {
		if n > maxWorkers {
			break
		}
		for _, loader := range analyticLoaders {
			for _, strat := range strategies {
				batch := bench.DefaultBatch
				switch strat {
				case "linear":
					batch = bench.DefaultBatch * n
				case "sqrt":
					batch = int(float64(bench.DefaultBatch) * math.Sqrt(float64(n)))
				case "cbrt":
					batch = int(float64(bench.DefaultBatch) * math.Cbrt(float64(n)))
				}
				out = append(out, Candidate{
					Workers: n, Batch: batch, Engine: loader.String(), Strategy: strat,
				})
			}
		}
	}
	return out
}

// Predict implements Calibration by running the simulator.
func (Analytic) Predict(req Request, bench sim.BenchCal, c Candidate) (Outcome, error) {
	loader, err := sim.LoaderByName(c.Engine)
	if err != nil {
		return Outcome{}, err
	}
	r, err := sim.Run(sim.Config{
		Machine: req.Machine, Bench: bench, Ranks: c.Workers,
		Scaling: sim.Strong, Epochs: req.Epochs, Batch: c.Batch,
		Loader: loader,
	})
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{TimeS: r.TotalTime, EnergyJ: r.TotalEnergyJ, Accuracy: r.Accuracy, Loss: r.Loss}, nil
}
