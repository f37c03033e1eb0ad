package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	mustCandle(t, "sweep", "-exp", "table1")
	mustCandle(t, "sweep", "-exp", "fig12", "-csv")
	mustCandle(t, "sweep", "-exp", "xfusion", "-chart", "2")
}

func TestRunUnknownExperiment(t *testing.T) {
	if code, _, _ := candleCLI("sweep", "-exp", "fig99"); code != 1 {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunAllPaperExperiments(t *testing.T) {
	mustCandle(t, "sweep", "-exp", "all", "-csv")
}

// TestRunPrintsAllSixTables: `sweep -exp` over a list is the
// single-ID sweeps concatenated — same bytes, in order.
func TestRunPrintsAllSixTables(t *testing.T) {
	ids := []string{"table1", "table2", "table3", "table4", "table5", "table6"}
	out := mustCandle(t, "sweep", "-exp", strings.Join(ids, ","))
	var want strings.Builder
	for _, id := range ids {
		if !strings.Contains(out, "== "+id+":") {
			t.Fatalf("output missing %s", id)
		}
		want.WriteString(mustCandle(t, "sweep", "-exp", id))
	}
	if out != want.String() {
		t.Fatal("sweep over table1,...,table6 differs from the six single-ID sweeps")
	}
	if code, _, _ := candleCLI("sweep", "-exp", "table1,fig99"); code != 1 {
		t.Fatal("a list with an unknown ID accepted")
	}
}

func TestBundleViaCore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	if out := mustCandle(t, "sweep", "-o", dir); !strings.Contains(out, "artifact files to "+dir) || strings.Contains(out, "wrote 0 ") {
		t.Fatalf("sweep -o output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "tables.txt")); err != nil {
		t.Fatal(err)
	}
	// -o writes everything; narrowing it is a usage error.
	for _, extra := range [][]string{{"-exp", "fig6a"}, {"-csv"}, {"-list"}} {
		if code, _, _ := candleCLI(append([]string{"sweep", "-o", t.TempDir()}, extra...)...); code != 2 {
			t.Errorf("sweep -o %v: exit %d, want 2", extra, code)
		}
	}
}
