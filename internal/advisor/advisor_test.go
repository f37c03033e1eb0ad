package advisor

import (
	"errors"
	"strings"
	"testing"

	"candle/internal/hpc"
)

func TestRecommendNT3MinTimeRespectsAccuracyFloor(t *testing.T) {
	best, candidates, err := Recommend(Request{
		Benchmark: "NT3", Machine: hpc.Summit(),
		Objective: MinTime, MinAccuracy: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(candidates) == 0 {
		t.Fatal("no candidates")
	}
	// Accuracy ≥0.99 needs ≥8 epochs/GPU → at most 48 GPUs; the
	// fastest feasible plan is 48 GPUs with the chunked loader.
	if best.Workers != 48 {
		t.Fatalf("best workers = %d, want 48 (accuracy cliff)", best.Workers)
	}
	if best.Engine != "chunked" {
		t.Fatalf("best loader = %v, want chunked", best.Engine)
	}
	if best.Accuracy < 0.99 {
		t.Fatalf("best accuracy %v below floor", best.Accuracy)
	}
	// There must exist a faster-but-infeasible candidate (more GPUs,
	// lower accuracy) to prove the floor actually binds.
	foundFaster := false
	for _, c := range candidates {
		if c.TimeS < best.TimeS && c.Accuracy < 0.99 {
			foundFaster = true
		}
	}
	if !foundFaster {
		t.Fatal("accuracy floor did not bind")
	}
}

func TestRecommendMinEnergyPrefersFewerWorkersThanMinTime(t *testing.T) {
	timeBest, _, err := Recommend(Request{
		Benchmark: "NT3", Machine: hpc.Summit(), Objective: MinTime, MinAccuracy: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	energyBest, _, err := Recommend(Request{
		Benchmark: "NT3", Machine: hpc.Summit(), Objective: MinEnergy, MinAccuracy: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if energyBest.EnergyJ > timeBest.EnergyJ {
		t.Fatalf("min-energy plan uses more energy (%v) than min-time plan (%v)",
			energyBest.EnergyJ, timeBest.EnergyJ)
	}
	// Energy grows with allreduce overhead and fleet size, so the
	// energy optimum uses at most as many workers.
	if energyBest.Workers > timeBest.Workers {
		t.Fatalf("min-energy chose more workers (%d) than min-time (%d)",
			energyBest.Workers, timeBest.Workers)
	}
}

func TestRecommendChunkedAlwaysWins(t *testing.T) {
	for _, bench := range []string{"NT3", "P1B1", "P1B2"} {
		best, _, err := Recommend(Request{
			Benchmark: bench, Machine: hpc.Summit(), Objective: MinTime,
		})
		if err != nil {
			t.Fatal(err)
		}
		if best.Engine != "chunked" {
			t.Fatalf("%s: best loader %v, want chunked", bench, best.Engine)
		}
	}
}

func TestRecommendP1B3BatchScaling(t *testing.T) {
	best, candidates, err := Recommend(Request{
		Benchmark: "P1B3", Machine: hpc.Summit(),
		Objective: MinTime, MinAccuracy: 0.64, Epochs: 1, ScaleBatch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy ≥0.64 rules out linear scaling at high GPU counts; the
	// winner should use cubic-root (or fixed) batches.
	if best.Strategy == "linear" && best.Workers > 6 {
		t.Fatalf("linear scaling cannot reach 0.64 at %d workers", best.Workers)
	}
	if best.Accuracy < 0.64 {
		t.Fatalf("best accuracy %v", best.Accuracy)
	}
	// OOM configurations (linear at 192/384) must have been skipped,
	// not returned as candidates.
	for _, c := range candidates {
		if c.Strategy == "linear" && c.Workers >= 192 {
			t.Fatalf("OOM configuration leaked into candidates: %+v", c)
		}
	}
}

func TestRecommendInfeasible(t *testing.T) {
	_, candidates, err := Recommend(Request{
		Benchmark: "NT3", Machine: hpc.Summit(),
		Objective: MinTime, MinAccuracy: 0.9999999, // unreachable
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if len(candidates) == 0 {
		t.Fatal("candidates should still be reported")
	}
}

func TestRecommendUnknownBenchmark(t *testing.T) {
	if _, _, err := Recommend(Request{Benchmark: "NT9", Machine: hpc.Summit()}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRecommendMaxWorkersCap(t *testing.T) {
	_, candidates, err := Recommend(Request{
		Benchmark: "NT3", Machine: hpc.Summit(), MaxWorkers: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range candidates {
		if c.Workers > 24 {
			t.Fatalf("candidate exceeds cap: %+v", c)
		}
	}
}

func TestPlanAndObjectiveStrings(t *testing.T) {
	p := Plan{Workers: 48, Batch: 20, Engine: "chunked", Strategy: "fixed",
		TimeS: 185.7, EnergyJ: 1.2e6, Accuracy: 0.992}
	s := p.String()
	if !strings.Contains(s, "48 workers") || !strings.Contains(s, "chunked") {
		t.Fatalf("plan string: %s", s)
	}
	if MinTime.String() != "min-time" || MinEnergy.String() != "min-energy" {
		t.Fatal("objective strings")
	}
}

func TestRecommendMinEDP(t *testing.T) {
	edp, _, err := Recommend(Request{
		Benchmark: "NT3", Machine: hpc.Summit(), Objective: MinEDP, MinAccuracy: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	timeBest, _, err := Recommend(Request{
		Benchmark: "NT3", Machine: hpc.Summit(), Objective: MinTime, MinAccuracy: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	energyBest, _, err := Recommend(Request{
		Benchmark: "NT3", Machine: hpc.Summit(), Objective: MinEnergy, MinAccuracy: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	// EDP of the EDP winner is no worse than either extreme's EDP.
	edpOf := func(p Plan) float64 { return p.EnergyJ * p.TimeS }
	if edpOf(edp) > edpOf(timeBest) || edpOf(edp) > edpOf(energyBest) {
		t.Fatalf("EDP winner (%v) beaten by extremes (%v, %v)",
			edpOf(edp), edpOf(timeBest), edpOf(energyBest))
	}
	if MinEDP.String() != "min-edp" {
		t.Fatal("objective string")
	}
}

func TestRecommendDeadline(t *testing.T) {
	req := Request{Benchmark: "NT3", Machine: hpc.Summit(), Objective: MinTime, MinAccuracy: 0.99}
	free, _, err := Recommend(req)
	if err != nil {
		t.Fatal(err)
	}
	// A deadline the winner meets leaves the recommendation alone.
	req.DeadlineS = free.TimeS
	if got, _, err := Recommend(req); err != nil || got != free {
		t.Fatalf("deadline at the winner's time: %+v, %v; want %+v", got, err, free)
	}
	// A deadline no plan meets is infeasible, and the error names it.
	req.DeadlineS = 1
	_, _, err = Recommend(req)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if !strings.Contains(err.Error(), "within 1s") {
		t.Fatalf("deadline missing from error: %v", err)
	}
}
