package main

import (
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

// TestRunPrintsAllSixTables: `tables` is `sweep` over the six table
// IDs, nothing more — same bytes, in order.
func TestRunPrintsAllSixTables(t *testing.T) {
	out := mustCandle(t, "tables")
	var want strings.Builder
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5", "table6"} {
		if !strings.Contains(out, "== "+id+":") {
			t.Fatalf("output missing %s", id)
		}
		want.WriteString(mustCandle(t, "sweep", "-exp", id))
	}
	if out != want.String() {
		t.Fatal("candle tables differs from candle sweep over table1..table6")
	}
}
