// Package advisor recommends run configurations — the
// "performance-power modeling to further optimize the CANDLE
// benchmarks" the paper lists as future work (its reference [34]).
//
// Given a benchmark, an accuracy floor, and an objective (minimize
// time, energy, or their product), Recommend sweeps candidate
// configurations from a Calibration source and returns the best
// feasible plan, for instance: "NT3 on Summit to accuracy ≥0.99:
// 48 GPUs, batch 20, chunked loader — 186 s, 0.9 MJ".
//
// Where the predictions come from is the Request.Calibration field:
// nil keeps the historical Analytic source (the paper-calibrated
// internal/sim models), while a Measured source fitted from a
// BENCH_e2e.json artifact (LoadMeasured) recommends from trajectories
// this machine actually produced.
package advisor

import (
	"errors"
	"fmt"

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
	// Machine is the target machine for analytic predictions; a
	// measured calibration ignores it (its data already has a machine:
	// the one that produced the artifact).
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
	// Epochs is the total epoch budget (0 = benchmark default;
	// measured calibrations always price their recorded budget).
	Epochs int
	// ScaleBatch additionally sweeps the Figure 4(b) batch-scaling
	// strategies (for P1B3-style workloads; analytic only).
	ScaleBatch bool
	// DeadlineS rejects plans predicted to take longer than this many
	// seconds (0 = no deadline). Unlike the floors, it applies to every
	// benchmark kind.
	DeadlineS float64
	// Calibration is where predictions come from; nil means Analytic{}
	// (the historical simulator sweep, bit-for-bit).
	Calibration Calibration
}

// Plan is one feasible configuration with its predicted outcome.
type Plan struct {
	Workers  int
	Batch    int
	Engine   string // loader/engine name
	Strategy string // "fixed", "linear", "sqrt", "cbrt", "measured"
	Overlap  bool   // measured plans: async gradient pipeline
	DType    string // measured plans: compute precision

	TimeS    float64
	EnergyJ  float64
	Accuracy float64
	Loss     float64
}

func (p Plan) String() string {
	engine := p.Engine
	if p.Overlap {
		engine += "+overlap"
	}
	if p.DType != "" && p.DType != "f64" {
		engine += "/" + p.DType
	}
	return fmt.Sprintf("%d workers, batch %d (%s), %s loader: %.1f s, %.2f MJ, accuracy %.3f",
		p.Workers, p.Batch, p.Strategy, engine, p.TimeS, p.EnergyJ/1e6, p.Accuracy)
}

// ErrInfeasible reports that no swept configuration met the floor.
var ErrInfeasible = errors.New("advisor: no feasible configuration")

// Recommend sweeps the calibration's candidates and returns the best
// feasible plan plus every candidate considered (feasible or not), for
// reporting. The calibration defaults to Analytic{}, which reproduces
// the historical simulator sweep exactly.
func Recommend(req Request) (best Plan, candidates []Plan, err error) {
	cal := req.Calibration
	if cal == nil {
		cal = Analytic{}
	}
	bench, err := cal.Bench(req.Benchmark)
	if err != nil {
		return Plan{}, nil, err
	}
	found := false
	for _, c := range cal.Candidates(bench, req) {
		out, predErr := cal.Predict(req, bench, c)
		if predErr != nil {
			// OOM and similar: not a candidate.
			continue
		}
		p := Plan{
			Workers: c.Workers, Batch: c.Batch, Engine: c.Engine,
			Strategy: c.Strategy, Overlap: c.Overlap, DType: c.DType,
			TimeS: out.TimeS, EnergyJ: out.EnergyJ,
			Accuracy: out.Accuracy, Loss: out.Loss,
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
	if !found {
		return Plan{}, candidates, infeasibleErr(req, cal)
	}
	return best, candidates, nil
}

func infeasibleErr(req Request, cal Calibration) error {
	where := req.Machine.Name
	if where == "" {
		where = cal.Name()
	}
	msg := fmt.Sprintf("%s on %s", req.Benchmark, where)
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
