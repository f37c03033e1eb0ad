package main

import (
	"strings"
	"testing"
)

func TestRunMainSingleSeedPasses(t *testing.T) {
	out := mustCandle(t, "sim", "-seed", "7", "-check", "faults")
	if !strings.Contains(out, "ok   seed 7") || !strings.Contains(out, "PASS 1 seed(s)") {
		t.Fatalf("output: %s", out)
	}
}

func TestRunMainSweepEchoesSeeds(t *testing.T) {
	out := mustCandle(t, "sim", "-seeds", "2", "-start-seed", "3", "-check", "faults")
	for _, want := range []string{"ok   seed 3", "ok   seed 4", "PASS 2 seed(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestRunMainFailureEchoesRepro: an impossible watchdog deadline makes
// the base run "deadlock", which must fail fast with exit 1, the typed
// no-hang violation, the repro line, and the goroutine dump.
func TestRunMainFailureEchoesRepro(t *testing.T) {
	code, out, errOut := candleCLI("sim", "-seed", "5", "-check", "faults", "-timeout", "1ns")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s", code, out)
	}
	for _, want := range []string{"no-hang", "repro: candle sim -seed 5 -verbose", "goroutine"} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("missing %q in stderr:\n%s", want, errOut)
		}
	}
}

func TestRunMainRejectsUnknownCheck(t *testing.T) {
	if code, _, _ := candleCLI("sim", "-check", "bogus"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code, _, _ := candleCLI("sim", "-nosuchflag"); code != 2 {
		t.Fatalf("flag error exit %d, want 2", code)
	}
}
