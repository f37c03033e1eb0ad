package main

import (
	"strings"
	"testing"
)

func TestRunProfile(t *testing.T) {
	// The scaled default NT3 profiles quickly.
	out := mustCandle(t, "profile", "-bench", "NT3", "-batch", "8", "-reps", "2")
	for _, want := range []string{"per-layer timings, batch 8, 2 reps", "\noptimizer ", "\nzero_grads "} {
		if !strings.Contains(out, want) {
			t.Fatalf("profile output lacks %q:\n%s", want, out)
		}
	}
	// Batch larger than the dataset clamps rather than fails.
	mustCandle(t, "profile", "-bench", "P1B2", "-batch", "1048576", "-reps", "1")
}

func TestRunProfileErrors(t *testing.T) {
	if code, _, _ := candleCLI("profile", "-bench", "NT99", "-batch", "8", "-reps", "1"); code != 1 {
		t.Fatal("bad benchmark accepted")
	}
}
