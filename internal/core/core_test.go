package core

import (
	"strconv"
	"strings"
	"testing"
)

func TestBatchFor(t *testing.T) {
	for _, tc := range []struct {
		s       BatchStrategy
		workers int
		want    int
	}{
		{Linear, 48, 4800},
		{Linear, 384, 38400},
		{SquareRoot, 48, 692},
		{CubicRoot, 48, 363}, // paper: int(100·48^(1/3)) = 363
		{CubicRoot, 1, 100},
	} {
		got, err := BatchFor(tc.s, 100, tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("BatchFor(%s, 100, %d) = %d, want %d", tc.s, tc.workers, got, tc.want)
		}
	}
	if _, err := BatchFor("bogus", 100, 4); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

func TestImprovement(t *testing.T) {
	if Improvement(200, 100) != 50 {
		t.Fatal("improvement math")
	}
	if Improvement(0, 100) != 0 {
		t.Fatal("zero baseline")
	}
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b", "fig9a", "fig9b",
		"fig10a", "fig10b", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "sec5.4",
	}
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment registry missing %s", id)
		}
	}
	if n := len(Experiments()); n != len(want) {
		t.Fatalf("registry has %d entries, want %d", n, len(want))
	}
	if _, ok := ByID("fig11"); !ok {
		t.Fatal("ByID lookup failed")
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("bogus ID found")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	tables, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(Experiments()) {
		t.Fatalf("RunAll returned %d tables", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: empty table", tb.ID)
		}
		if len(tb.Headers) == 0 {
			t.Fatalf("%s: no headers", tb.ID)
		}
		// Render both forms without panicking.
		if tb.String() == "" || tb.CSV() == "" {
			t.Fatalf("%s: empty rendering", tb.ID)
		}
	}
}

// cell parses a table cell as float, failing the test on garbage.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparsable cell %q", s)
	}
	return v
}

func TestFigure6aLoadingDominatesAt48(t *testing.T) {
	tb, err := Figure6a()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		gpus := cell(t, row[0])
		tf := cell(t, row[1])
		load := cell(t, row[4])
		if gpus >= 48 && load < tf {
			t.Fatalf("at %v GPUs loading %v < tensorflow %v", gpus, load, tf)
		}
	}
}

func TestTable2EpochTimes(t *testing.T) {
	tb, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if e := cell(t, first[1]); e < 9.8 || e > 10.8 {
		t.Fatalf("1-GPU epoch = %v", e)
	}
	if e := cell(t, last[1]); e < 18 || e > 30 {
		t.Fatalf("384-GPU epoch = %v", e)
	}
	// bs40 time per epoch below bs20 everywhere.
	for _, row := range tb.Rows {
		if cell(t, row[2]) >= cell(t, row[1]) {
			t.Fatalf("bs40 epoch not faster: %v", row)
		}
	}
}

func TestTable3SpeedupShapes(t *testing.T) {
	tb, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	speedups := map[string]float64{}
	for _, row := range tb.Rows {
		if row[1] == "training" {
			speedups[row[0]] = cell(t, row[6])
		}
	}
	if speedups["NT3"] < 5 || speedups["NT3"] > 6.5 {
		t.Fatalf("NT3 speedup %v, want ≈5.7", speedups["NT3"])
	}
	if speedups["P1B1"] < 7 {
		t.Fatalf("P1B1 speedup %v, want >7", speedups["P1B1"])
	}
	if speedups["P1B3"] > 1.2 {
		t.Fatalf("P1B3 speedup %v, want ≈1", speedups["P1B3"])
	}
}

func TestFigure10aLinearFails(t *testing.T) {
	tb, err := Figure10a()
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, row := range tb.Rows {
		if row[2] == "FAILED(OOM)" {
			failed++
		}
	}
	if failed != 2 {
		t.Fatalf("linear scaling should fail at exactly 192 and 384 GPUs, got %d failures", failed)
	}
}

func TestFigure11MaxImprovementNote(t *testing.T) {
	tb, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[0], "max improvement") {
		t.Fatalf("missing max-improvement note: %v", tb.Notes)
	}
	// Last row (384 GPUs) improvement should be the maximum, 60-80%.
	last := tb.Rows[len(tb.Rows)-1]
	if imp := cell(t, last[3]); imp < 60 || imp > 80 {
		t.Fatalf("384-GPU improvement = %v, want ≈67.68", imp)
	}
}

func TestFigure18WeakScalingDecreasing(t *testing.T) {
	tb, err := Figure18()
	if err != nil {
		t.Fatal(err)
	}
	prev := 1e9
	for _, row := range tb.Rows {
		imp := cell(t, row[3])
		if imp > prev+0.5 {
			t.Fatalf("weak-scaling improvement not decreasing: %v", tb.Rows)
		}
		prev = imp
	}
}

func TestRanksUpTo(t *testing.T) {
	got := ranksUpTo([]int{1, 6, 96, 192, 384}, 384, 4)
	want := []int{1, 6, 96}
	if len(got) != len(want) {
		t.Fatalf("ranksUpTo = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranksUpTo = %v, want %v", got, want)
		}
	}
}
