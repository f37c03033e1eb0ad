package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"candle/internal/e2ebench"
)

func TestBundleViaCore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	if out := mustCandle(t, "report", "-o", dir); !strings.Contains(out, "artifact files to "+dir) || strings.Contains(out, "wrote 0 ") {
		t.Fatalf("report output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "tables.txt")); err != nil {
		t.Fatal(err)
	}
}

func TestRenderE2E(t *testing.T) {
	m := &e2ebench.Metrics{Seed: 11, Pilots: []e2ebench.PilotResult{{
		Spec: e2ebench.PilotSpec{Name: "NT3", TotalEpochs: 16,
			TargetKind: e2ebench.TargetAccuracy, Target: 0.7},
		Configs: []e2ebench.ConfigResult{{
			Config:        e2ebench.Config{Engine: "parallel", Ranks: 2, Batch: 7, DType: "f64"},
			ReachedTarget: true, TimeToTargetS: 1.25, EnergyToTargetJ: 120,
			TotalS: 3, LoadS: 0.4, ComputeS: 2.2, CollectiveS: 0.3, FinalTestAcc: 0.9,
		}},
	}}}
	path := filepath.Join(t.TempDir(), "BENCH_e2e.json")
	if err := e2ebench.Write(path, m, "report test fixture"); err != nil {
		t.Fatal(err)
	}
	out := mustCandle(t, "report", "-e2e", path)
	for _, want := range []string{"e2e-NT3", "parallel", "1.250s", "hit", "seed 11"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Schema-checked load: a wrong file errors.
	if code, _, _ := candleCLI("report", "-e2e", path+".missing"); code != 1 {
		t.Fatal("missing file accepted")
	}
}
