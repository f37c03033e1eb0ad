package core

import (
	"strings"
	"testing"
)

func TestExtraExperimentsRegistered(t *testing.T) {
	extras := ExtraExperiments()
	if len(extras) != 6 {
		t.Fatalf("extras = %d", len(extras))
	}
	if _, ok := ByIDAll("xps"); !ok {
		t.Fatal("xps lookup")
	}
	if _, ok := ByIDAll("fig11"); !ok {
		t.Fatal("paper lookup through ByIDAll")
	}
	if _, ok := ByIDAll("bogus"); ok {
		t.Fatal("bogus lookup")
	}
}

func TestExtraPSvsRingTable(t *testing.T) {
	tb, err := ExtraPSvsRing()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// At 8 ranks the PS hotspot share must be 100% and the ring's 25%.
	for _, row := range tb.Rows {
		if row[0] != "8" {
			continue
		}
		switch row[1] {
		case "paramserver":
			if row[4] != "100.00%" {
				t.Fatalf("PS share = %s", row[4])
			}
		case "ring":
			if cell(t, row[4]) > 30 {
				t.Fatalf("ring share = %s", row[4])
			}
		}
	}
}

func TestExtraFusionTable(t *testing.T) {
	tb, err := ExtraFusion()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		calls := cell(t, row[2])
		if strings.HasPrefix(row[1], "on") && calls != 1 {
			t.Fatalf("fusion on: %v calls for %s tensors", calls, row[0])
		}
		if row[1] == "off" && int(calls) != int(cell(t, row[0])) {
			t.Fatalf("fusion off: %v calls for %s tensors", calls, row[0])
		}
	}
}

func TestExtraAdvisorTable(t *testing.T) {
	tb, err := ExtraAdvisor()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[5] != "chunked" {
			t.Fatalf("advisor chose %s loader for %s", row[5], row[0])
		}
	}
}

func TestExtraStragglersTable(t *testing.T) {
	tb, err := ExtraStragglers()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if p0 := cell(t, tb.Rows[0][2]); p0 != 0 {
		t.Fatalf("zero-jitter penalty = %v", p0)
	}
	prev := -1.0
	for _, row := range tb.Rows {
		p := cell(t, row[2])
		if p < prev {
			t.Fatalf("penalty not monotone: %v", tb.Rows)
		}
		prev = p
	}
}

func TestExtraChunkSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real I/O sweep skipped in -short")
	}
	tb, err := ExtraChunkSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Chunk counts decrease as chunk size grows.
	prev := 1 << 30
	for _, row := range tb.Rows {
		c := int(cell(t, row[2]))
		if c > prev {
			t.Fatalf("chunk count increased: %v", tb.Rows)
		}
		prev = c
	}
}
