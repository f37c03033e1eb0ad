package main

import (
	"strings"
	"testing"
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

// TestRunAdviseDeadline: a deadline the winner meets is echoed in the
// header; one no plan meets is infeasible, and the error names it.
func TestRunAdviseDeadline(t *testing.T) {
	out := mustCandle(t, "advise", "-bench", "NT3", "-min-accuracy", "0.99", "-deadline", "1h")
	if !strings.Contains(out, "deadline 1h0m0s") || !strings.Contains(out, "recommended:") {
		t.Fatalf("advise with a deadline the winner meets:\n%s", out)
	}
	code, _, stderr := candleCLI("advise", "-bench", "NT3", "-min-accuracy", "0.99", "-deadline", "1s")
	if code != 1 || !strings.Contains(stderr, "within 1s") {
		t.Fatalf("impossible deadline: exit %d, stderr %q; want 1 naming the deadline", code, stderr)
	}
}
