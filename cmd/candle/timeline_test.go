package main

import (
	"os"
	"path/filepath"
	"testing"

	"candle/internal/trace"
)

func TestRunWritesChromeTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tl.json")
	mustCandle(t, "timeline", "-bench", "NT3", "-ranks", "384", "-loader", "naive", "-o", out)
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tl, err := trace.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Len() == 0 {
		t.Fatal("empty timeline")
	}
}

func TestRunWeakScaling(t *testing.T) {
	out := filepath.Join(t.TempDir(), "weak.json")
	mustCandle(t, "timeline", "-bench", "NT3", "-ranks", "768", "-epochs", "8", "-weak", "-loader", "chunked", "-o", out)
}
