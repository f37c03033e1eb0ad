// Package advisor recommends run configurations — the
// "performance-power modeling to further optimize the CANDLE
// benchmarks" the paper lists as future work (its reference [34]).
//
// Given a benchmark, an accuracy floor, and an objective (minimize
// time, energy, or their product), Recommend sweeps candidate
// configurations through the paper-calibrated internal/sim models and
// returns the best feasible plan, for instance: "NT3 on Summit to
// accuracy ≥0.99: 48 GPUs, batch 20, chunked loader — 186 s, 0.9 MJ".
package advisor

import (
	"errors"
	"fmt"
	"math"

	"candle/internal/hpc"
	"candle/internal/sim"
)

// Objective selects what Recommend minimizes.
type Objective int

// Objectives.
const (
	MinTime Objective = iota
	MinEnergy
	// MinEDP minimizes the energy-delay product (J·s), the standard
	// HPC metric balancing the paper's two improvement axes.
	MinEDP
)

func (o Objective) String() string {
	switch o {
	case MinEnergy:
		return "min-energy"
	case MinEDP:
		return "min-edp"
	default:
		return "min-time"
	}
}

// Request describes what the user wants to run.
type Request struct {
	Benchmark string
	// Machine is the machine the predictions are for.
	Machine   hpc.Machine
	Objective Objective
	// MinAccuracy is the accuracy floor a plan must reach
	// (classification benchmarks only; 0 = no floor).
	MinAccuracy float64
	// MaxLoss is the loss ceiling (loss benchmarks only; 0 = none).
	MaxLoss float64
	// MaxWorkers caps the sweep (0 = 384, the paper's strong-scaling
	// maximum).
	MaxWorkers int
	// Epochs is the total epoch budget (0 = benchmark default).
	Epochs int
	// ScaleBatch additionally sweeps the Figure 4(b) batch-scaling
	// strategies (for P1B3-style workloads).
	ScaleBatch bool
	// DeadlineS rejects plans predicted to take longer than this many
	// seconds (0 = no deadline). Unlike the floors, it applies to every
	// benchmark kind.
	DeadlineS float64
}

// Plan is one feasible configuration with its predicted outcome.
type Plan struct {
	Workers  int
	Batch    int
	Engine   string // loader/engine name
	Strategy string // "fixed", "linear", "sqrt", "cbrt"

	TimeS    float64
	EnergyJ  float64
	Accuracy float64
	Loss     float64
}

func (p Plan) String() string {
	return fmt.Sprintf("%d workers, batch %d (%s), %s loader: %.1f s, %.2f MJ, accuracy %.3f",
		p.Workers, p.Batch, p.Strategy, p.Engine, p.TimeS, p.EnergyJ/1e6, p.Accuracy)
}

// ErrInfeasible reports that no swept configuration met the floor.
var ErrInfeasible = errors.New("advisor: no feasible configuration")

// workerSweep is the standard ladder of worker counts.
var workerSweep = []int{1, 6, 12, 24, 48, 96, 192, 384}

// sweepLoaders is the loader sweep order; with better()'s strict
// less-than the earliest candidate wins ties, so it must not change.
var sweepLoaders = []sim.Loader{sim.LoaderNaive, sim.LoaderParallel, sim.LoaderChunked}

// Recommend runs the simulator for every worker count × loader (×
// batch-scaling strategy) and returns the best feasible plan plus every
// candidate considered (feasible or not), for reporting.
func Recommend(req Request) (best Plan, candidates []Plan, err error) {
	bench, err := sim.BenchByName(req.Benchmark)
	if err != nil {
		return Plan{}, nil, err
	}
	maxWorkers := req.MaxWorkers
	if maxWorkers <= 0 {
		maxWorkers = 384
	}
	strategies := []string{"fixed"}
	if req.ScaleBatch {
		strategies = append(strategies, "linear", "sqrt", "cbrt")
	}
	found := false
	for _, n := range workerSweep {
		if n > maxWorkers {
			break
		}
		for _, loader := range sweepLoaders {
			for _, strat := range strategies {
				batch := scaledBatch(bench.DefaultBatch, strat, n)
				r, runErr := sim.Run(sim.Config{
					Machine: req.Machine, Bench: bench, Ranks: n,
					Scaling: sim.Strong, Epochs: req.Epochs, Batch: batch,
					Loader: loader,
				})
				if runErr != nil {
					// OOM and similar: not a candidate.
					continue
				}
				p := Plan{
					Workers: n, Batch: batch, Engine: loader.String(), Strategy: strat,
					TimeS: r.TotalTime, EnergyJ: r.TotalEnergyJ,
					Accuracy: r.Accuracy, Loss: r.Loss,
				}
				candidates = append(candidates, p)
				if !feasible(p, bench, req) {
					continue
				}
				if !found || better(p, best, req.Objective) {
					best = p
					found = true
				}
			}
		}
	}
	if !found {
		return Plan{}, candidates, infeasibleErr(req)
	}
	return best, candidates, nil
}

// scaledBatch is the per-worker batch under a Figure 4(b) strategy.
func scaledBatch(base int, strategy string, workers int) int {
	switch strategy {
	case "linear":
		return base * workers
	case "sqrt":
		return int(float64(base) * math.Sqrt(float64(workers)))
	case "cbrt":
		return int(float64(base) * math.Cbrt(float64(workers)))
	}
	return base
}

func infeasibleErr(req Request) error {
	msg := fmt.Sprintf("%s on %s", req.Benchmark, req.Machine.Name)
	if req.MinAccuracy > 0 {
		msg += fmt.Sprintf(" with accuracy ≥ %v", req.MinAccuracy)
	}
	if req.MaxLoss > 0 {
		msg += fmt.Sprintf(" with loss ≤ %v", req.MaxLoss)
	}
	if req.DeadlineS > 0 {
		msg += fmt.Sprintf(" within %vs", req.DeadlineS)
	}
	return fmt.Errorf("%w: %s", ErrInfeasible, msg)
}

func feasible(p Plan, bench sim.BenchCal, req Request) bool {
	if bench.Classification && req.MinAccuracy > 0 && p.Accuracy < req.MinAccuracy {
		return false
	}
	if bench.LossAmp > 0 && req.MaxLoss > 0 && p.Loss > req.MaxLoss {
		return false
	}
	if req.DeadlineS > 0 && p.TimeS > req.DeadlineS {
		return false
	}
	return true
}

func better(a, b Plan, obj Objective) bool {
	switch obj {
	case MinEnergy:
		return a.EnergyJ < b.EnergyJ
	case MinEDP:
		return a.EnergyJ*a.TimeS < b.EnergyJ*b.TimeS
	default:
		return a.TimeS < b.TimeS
	}
}
