package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBundleViaCore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	if out := mustCandle(t, "report", "-o", dir); !strings.Contains(out, "artifact files to "+dir) || strings.Contains(out, "wrote 0 ") {
		t.Fatalf("report output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "tables.txt")); err != nil {
		t.Fatal(err)
	}
}
