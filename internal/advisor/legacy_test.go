package advisor

import (
	"math"
	"testing"

	"candle/internal/hpc"
	"candle/internal/sim"
)

// legacyRecommend is a frozen copy of the original sweep. The
// compatibility test below proves Recommend still reproduces it plan
// for plan, in order: refactors of the sweep change no recommendation.
func legacyRecommend(req Request) (best Plan, candidates []Plan, err error) {
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
		for _, loader := range []sim.Loader{sim.LoaderNaive, sim.LoaderParallel, sim.LoaderChunked} {
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
				r, runErr := sim.Run(sim.Config{
					Machine: req.Machine, Bench: bench, Ranks: n,
					Scaling: sim.Strong, Epochs: req.Epochs, Batch: batch,
					Loader: loader,
				})
				if runErr != nil {
					continue
				}
				p := Plan{
					Workers: n, Batch: r.Batch, Engine: loader.String(), Strategy: strat,
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
		return Plan{}, candidates, ErrInfeasible
	}
	return best, candidates, nil
}

func TestAnalyticMatchesLegacySweep(t *testing.T) {
	requests := []Request{
		{Benchmark: "NT3", Machine: hpc.Summit(), Objective: MinTime, MinAccuracy: 0.99},
		{Benchmark: "NT3", Machine: hpc.Summit(), Objective: MinEnergy, MinAccuracy: 0.99},
		{Benchmark: "NT3", Machine: hpc.Theta(), Objective: MinEDP, MinAccuracy: 0.95},
		{Benchmark: "P1B1", Machine: hpc.Summit(), Objective: MinTime, MaxLoss: 0.02},
		{Benchmark: "P1B2", Machine: hpc.Summit(), Objective: MinTime, MaxWorkers: 24},
		{Benchmark: "P1B3", Machine: hpc.Summit(), Objective: MinTime, MinAccuracy: 0.64, Epochs: 1, ScaleBatch: true},
	}
	for _, req := range requests {
		gotBest, gotCands, gotErr := Recommend(req)
		wantBest, wantCands, wantErr := legacyRecommend(req)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%+v: err %v vs legacy %v", req, gotErr, wantErr)
		}
		if len(gotCands) != len(wantCands) {
			t.Fatalf("%+v: %d candidates vs legacy %d", req, len(gotCands), len(wantCands))
		}
		for i := range gotCands {
			if !plansEqual(gotCands[i], wantCands[i]) {
				t.Fatalf("%+v: candidate %d differs:\n new %+v\n old %+v", req, i, gotCands[i], wantCands[i])
			}
		}
		if gotErr == nil && !plansEqual(gotBest, wantBest) {
			t.Fatalf("%+v: recommendation differs:\n new %+v\n old %+v", req, gotBest, wantBest)
		}
	}
}

// plansEqual compares everything the legacy sweep produced, exactly.
func plansEqual(a, b Plan) bool {
	return a.Workers == b.Workers && a.Batch == b.Batch && a.Engine == b.Engine &&
		a.Strategy == b.Strategy && a.TimeS == b.TimeS && a.EnergyJ == b.EnergyJ &&
		a.Accuracy == b.Accuracy && a.Loss == b.Loss
}
