package main

import (
	"path/filepath"
	"strings"
	"testing"

	"candle/internal/e2ebench"
)

func TestRunAdvise(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "NT3", "-min-accuracy", "0.99"},
		{"-bench", "NT3", "-objective", "energy", "-min-accuracy", "0.99", "-all"},
		{"-bench", "P1B3", "-min-accuracy", "0.64", "-epochs", "1", "-scale-batch"},
		{"-bench", "P1B1", "-machine", "theta", "-max-loss", "0.1", "-max-workers", "96"},
	} {
		if out := mustCandle(t, append([]string{"advise"}, args...)...); !strings.Contains(out, "recommended:") {
			t.Fatalf("advise %v printed no recommendation:\n%s", args, out)
		}
	}
}

func TestRunAdviseErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad machine":        {"-machine", "frontier"},
		"bad objective":      {"-objective", "speed"},
		"infeasible request": {"-min-accuracy", "0.99999999"},
	} {
		if code, _, _ := candleCLI(append([]string{"advise"}, args...)...); code != 1 {
			t.Errorf("%s: exit %d, want 1", name, code)
		}
	}
}

func TestRunAdviseUnknownBenchmarkIsActionable(t *testing.T) {
	code, _, stderr := candleCLI("advise", "-bench", "NT99")
	if code != 1 {
		t.Fatalf("unknown benchmark: exit %d, want 1", code)
	}
	// The error must name the valid pilots, not just reject.
	for _, want := range []string{"NT99", "NT3", "P1B1", "P1B2", "P1B3"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("error %q does not mention %s", stderr, want)
		}
	}
}

// writeFixture writes a minimal measured artifact with one NT3 config.
func writeFixture(t *testing.T) string {
	t.Helper()
	m := &e2ebench.Metrics{Seed: 1, Pilots: []e2ebench.PilotResult{{
		Spec: e2ebench.PilotSpec{Name: "NT3", Batch: 7,
			TargetKind: e2ebench.TargetAccuracy, Target: 0.7},
		Configs: []e2ebench.ConfigResult{{
			Config:        e2ebench.Config{Engine: "sharded", Ranks: 2, Batch: 7, DType: "f64"},
			ReachedTarget: true, TimeToTargetS: 2, EnergyToTargetJ: 150,
			TotalS: 4, EnergyJ: 300, FinalTestAcc: 0.9, FinalTestLoss: 0.2,
			EpochEndS:     []float64{1, 2, 3, 4},
			EpochTestAcc:  []float64{0.5, 0.7, 0.8, 0.9},
			EpochTestLoss: []float64{0.9, 0.6, 0.4, 0.2},
			EpochEnergyJ:  []float64{75, 150, 225, 300},
		}},
	}}}
	path := filepath.Join(t.TempDir(), "BENCH_e2e.json")
	if err := e2ebench.Write(path, m, "advise test fixture"); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAdviseFromBench(t *testing.T) {
	path := writeFixture(t)
	mustCandle(t, "advise", "-bench", "NT3", "-min-accuracy", "0.7", "-from-bench", path, "-deadline", "300s", "-all")
	// A deadline tighter than any measured crossing is infeasible.
	if code, _, _ := candleCLI("advise", "-bench", "NT3", "-min-accuracy", "0.7", "-from-bench", path, "-deadline", "1ms"); code != 1 {
		t.Fatal("impossible deadline accepted")
	}
	// A pilot absent from the artifact is rejected with the known list.
	if code, _, stderr := candleCLI("advise", "-bench", "P1B2", "-from-bench", path); code != 1 || !strings.Contains(stderr, "NT3") {
		t.Fatalf("unknown pilot error not actionable: exit %d, %q", code, stderr)
	}
	// A non-e2e artifact is a schema error, not a panic or silence.
	if code, _, _ := candleCLI("advise", "-bench", "NT3", "-from-bench", "main.go"); code != 1 {
		t.Fatal("garbage artifact accepted")
	}
}
