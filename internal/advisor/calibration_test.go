package advisor

import (
	"errors"
	"math"
	"strings"
	"testing"

	"candle/internal/e2ebench"
	"candle/internal/hpc"
	"candle/internal/sim"
)

// legacyRecommend is a verbatim copy of the pre-Calibration sweep (the
// inlined triple loop Recommend used to be). The compatibility test
// below proves the Analytic source reproduces it plan for plan, in
// order — the API redesign's "no behavior change" guarantee.
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

// measuredFixture builds a small two-config NT3 artifact where the
// sharded 2-rank run reaches 0.8 accuracy faster than the parallel
// 1-rank run — the opposite of what the analytic tables would say at
// paper scale, so a changed recommendation proves the measured source
// is actually consulted.
func measuredFixture() *Measured {
	m := &e2ebench.Metrics{Seed: 11, Pilots: []e2ebench.PilotResult{{
		Spec: e2ebench.PilotSpec{Name: "NT3", Batch: 7, TotalEpochs: 16,
			TargetKind: e2ebench.TargetAccuracy, Target: 0.7},
		Configs: []e2ebench.ConfigResult{
			{
				Config:        e2ebench.Config{Engine: "parallel", Ranks: 1, Batch: 7, DType: "f64"},
				ReachedTarget: true, TimeToTargetS: 4, EnergyToTargetJ: 400,
				TotalS: 10, EnergyJ: 900, FinalTestAcc: 0.9, FinalTestLoss: 0.2,
				EpochEndS:     []float64{2, 4, 6, 8},
				EpochTestAcc:  []float64{0.5, 0.7, 0.8, 0.9},
				EpochTestLoss: []float64{0.9, 0.6, 0.4, 0.2},
				EpochEnergyJ:  []float64{200, 400, 600, 800},
			},
			{
				Config:        e2ebench.Config{Engine: "sharded", Ranks: 2, Overlap: true, Batch: 7, DType: "f32"},
				ReachedTarget: true, TimeToTargetS: 2, EnergyToTargetJ: 300,
				TotalS: 5, EnergyJ: 950, FinalTestAcc: 0.85, FinalTestLoss: 0.3,
				EpochEndS:     []float64{1, 2, 3, 4},
				EpochTestAcc:  []float64{0.6, 0.75, 0.8, 0.85},
				EpochTestLoss: []float64{0.8, 0.5, 0.45, 0.3},
				EpochEnergyJ:  []float64{190, 380, 570, 760},
			},
		},
	}}}
	return NewMeasured(m, "test artifact")
}

func TestMeasuredCalibrationChangesRecommendation(t *testing.T) {
	cal := measuredFixture()
	best, cands, err := Recommend(Request{
		Benchmark: "NT3", MinAccuracy: 0.8, Objective: MinTime, Calibration: cal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want the 2 measured configs", len(cands))
	}
	// The measured winner: sharded, 2 ranks, overlap, f32 — reaching 0.8
	// at t=3 vs parallel's t=6. The analytic source can never produce
	// this plan (it doesn't know the sharded engine exists).
	if best.Engine != "sharded" || best.Workers != 2 || !best.Overlap || best.DType != "f32" {
		t.Fatalf("best = %+v, want the measured sharded/2-rank config", best)
	}
	if best.TimeS != 3 || best.EnergyJ != 570 {
		t.Fatalf("best priced at %v s / %v J, want the epoch-3 trajectory point", best.TimeS, best.EnergyJ)
	}
	if best.Strategy != "measured" {
		t.Fatalf("strategy = %q", best.Strategy)
	}
	analyticBest, _, err := Recommend(Request{
		Benchmark: "NT3", Machine: hpc.Summit(), MinAccuracy: 0.8, Objective: MinTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if analyticBest.Engine == best.Engine && analyticBest.Workers == best.Workers {
		t.Fatalf("analytic and measured recommendations coincide (%+v); fixture should force a difference", best)
	}
}

func TestMeasuredEnergyObjectiveAndFloorRace(t *testing.T) {
	cal := measuredFixture()
	// At floor 0.9 only the parallel run qualifies (sharded tops out at
	// 0.85) — its unreached trajectory must make it infeasible, not
	// invisible.
	best, cands, err := Recommend(Request{
		Benchmark: "NT3", MinAccuracy: 0.9, Objective: MinTime, Calibration: cal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Engine != "parallel" || best.TimeS != 8 {
		t.Fatalf("best = %+v, want parallel at the 0.9-crossing epoch (t=8)", best)
	}
	if len(cands) != 2 {
		t.Fatalf("infeasible measured config dropped from candidates (%d)", len(cands))
	}

	// No floor: full measured budget.
	best, _, err = Recommend(Request{Benchmark: "NT3", Calibration: cal})
	if err != nil {
		t.Fatal(err)
	}
	if best.TimeS != 5 || best.Accuracy != 0.85 {
		t.Fatalf("no-floor best = %+v, want the faster full run", best)
	}
}

func TestMeasuredDeadline(t *testing.T) {
	cal := measuredFixture()
	// Deadline 2 s: sharded crosses 0.75 at t=2; parallel needs t=4 for
	// 0.7+. Floor 0.75 + deadline 2 leaves exactly the sharded plan.
	best, _, err := Recommend(Request{
		Benchmark: "NT3", MinAccuracy: 0.75, DeadlineS: 2, Calibration: cal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Engine != "sharded" || best.TimeS != 2 {
		t.Fatalf("best = %+v", best)
	}
	// An impossible deadline is infeasible, with the deadline in the
	// message.
	_, _, err = Recommend(Request{
		Benchmark: "NT3", MinAccuracy: 0.75, DeadlineS: 0.5, Calibration: cal,
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if !strings.Contains(err.Error(), "within 0.5s") {
		t.Fatalf("deadline missing from error: %v", err)
	}
	// The deadline also applies to the analytic source.
	_, _, err = Recommend(Request{
		Benchmark: "NT3", Machine: hpc.Summit(), MinAccuracy: 0.99, DeadlineS: 1,
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("analytic deadline ignored: %v", err)
	}
}

func TestMeasuredUnknownPilotIsActionable(t *testing.T) {
	cal := measuredFixture()
	_, _, err := Recommend(Request{Benchmark: "P1B3", Calibration: cal})
	var up *UnknownPilotError
	if !errors.As(err, &up) {
		t.Fatalf("want UnknownPilotError, got %v", err)
	}
	if up.Name != "P1B3" || len(up.Known) != 1 || up.Known[0] != "NT3" {
		t.Fatalf("error fields: %+v", up)
	}
	if !strings.Contains(err.Error(), "NT3") || !strings.Contains(err.Error(), "test artifact") {
		t.Fatalf("error not actionable: %v", err)
	}
}

func TestMeasuredLossTargetPilot(t *testing.T) {
	m := &e2ebench.Metrics{Pilots: []e2ebench.PilotResult{{
		Spec: e2ebench.PilotSpec{Name: "P1B1", Batch: 10,
			TargetKind: e2ebench.TargetLoss, Target: 0.3},
		Configs: []e2ebench.ConfigResult{{
			Config:        e2ebench.Config{Engine: "parallel", Ranks: 1, Batch: 10, DType: "f64"},
			TotalS:        6, EnergyJ: 600, FinalTestLoss: 0.25,
			EpochEndS:     []float64{2, 4, 6},
			EpochTestAcc:  []float64{0, 0, 0},
			EpochTestLoss: []float64{0.6, 0.35, 0.25},
			EpochEnergyJ:  []float64{200, 400, 600},
		}},
	}}}
	cal := NewMeasured(m, "loss fixture")
	best, _, err := Recommend(Request{Benchmark: "P1B1", MaxLoss: 0.4, Calibration: cal})
	if err != nil {
		t.Fatal(err)
	}
	if best.TimeS != 4 || best.Loss != 0.35 {
		t.Fatalf("best = %+v, want the 0.4-crossing epoch", best)
	}
	// Unreachable ceiling → infeasible.
	if _, _, err := Recommend(Request{Benchmark: "P1B1", MaxLoss: 0.1, Calibration: cal}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestMeasuredMaxWorkersFiltersCandidates(t *testing.T) {
	cal := measuredFixture()
	_, cands, err := Recommend(Request{Benchmark: "NT3", MaxWorkers: 1, Calibration: cal})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Workers != 1 {
		t.Fatalf("candidates = %+v", cands)
	}
}

func TestCalibrationNames(t *testing.T) {
	if (Analytic{}).Name() != "analytic" {
		t.Fatal("analytic name")
	}
	if got := measuredFixture().Name(); !strings.Contains(got, "measured") {
		t.Fatalf("measured name: %q", got)
	}
}
