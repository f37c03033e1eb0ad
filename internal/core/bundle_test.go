package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"candle/internal/trace"
)

func TestWriteBundle(t *testing.T) {
	dir := t.TempDir()
	n, err := WriteBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Every experiment CSV + tables.txt + charts.txt + 3 timelines +
	// 1 power trace.
	want := len(Experiments()) + 2 + 3 + 1
	if n != want {
		t.Fatalf("wrote %d files, want %d", n, want)
	}
	// tables.txt contains every artifact header.
	raw, err := os.ReadFile(filepath.Join(dir, "tables.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		if !strings.Contains(string(raw), "== "+e.ID+":") {
			t.Fatalf("tables.txt missing %s", e.ID)
		}
	}
	// The sec5.4 CSV must exist under a sanitized name.
	if _, err := os.Stat(filepath.Join(dir, "csv", "sec5_4.csv")); err != nil {
		t.Fatal(err)
	}
	// Timelines parse as Chrome traces.
	for _, name := range []string{"fig7b", "fig12", "fig19"} {
		f, err := os.Open(filepath.Join(dir, "timelines", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		tl, err := trace.ReadJSON(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tl.Len() == 0 {
			t.Fatalf("%s: empty timeline", name)
		}
	}
	// Charts render the headline figures.
	chartsRaw, err := os.ReadFile(filepath.Join(dir, "charts.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(chartsRaw), "fig11") || !strings.Contains(string(chartsRaw), "#") {
		t.Fatalf("charts.txt missing content")
	}
	// Power trace has a header and many samples.
	pow, err := os.ReadFile(filepath.Join(dir, "power", "fig7a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(pow), "\n"); lines < 100 {
		t.Fatalf("power trace has only %d lines", lines)
	}
}

func TestSanitize(t *testing.T) {
	if sanitize("sec5.4") != "sec5_4" || sanitize("fig6a") != "fig6a" {
		t.Fatal("sanitize")
	}
}
