package main

import (
	"strings"
	"testing"
)

func TestRunPower(t *testing.T) {
	mustCandle(t, "power", "-bench", "NT3", "-ranks", "48", "-every", "1000")
	out := mustCandle(t, "power", "-bench", "NT3", "-machine", "theta", "-ranks", "96", "-loader", "chunked", "-every", "1000", "-components")
	if !strings.Contains(out, "node_W") {
		t.Fatalf("-components printed no component breakdown:\n%s", out)
	}
	mustCandle(t, "power", "-bench", "NT3", "-ranks", "768", "-loader", "parallel", "-weak", "-epochs", "8", "-every", "1000")
}

func TestRunPowerErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad machine":   {"-machine", "frontier"},
		"bad benchmark": {"-bench", "NT99"},
		"bad loader":    {"-loader", "warp"},
	} {
		if code, _, _ := candleCLI(append([]string{"power", "-ranks", "1", "-every", "1"}, args...)...); code != 1 {
			t.Errorf("%s: exit %d, want 1", name, code)
		}
	}
}

func TestRunPowerUnknownBenchmarkIsActionable(t *testing.T) {
	code, _, stderr := candleCLI("power", "-bench", "NT99", "-ranks", "1")
	if code != 1 {
		t.Fatalf("unknown benchmark: exit %d, want 1", code)
	}
	// The message the CLI prints must list the valid pilot names.
	for _, want := range []string{"NT3", "P1B1", "P1B2", "P1B3"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("error %q does not mention %s", stderr, want)
		}
	}
}
