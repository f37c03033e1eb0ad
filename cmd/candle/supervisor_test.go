package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSupervisorGrid(t *testing.T) {
	db := filepath.Join(t.TempDir(), "trials.json")
	out := mustCandle(t, "supervisor", "-bench", "P1B2", "-strategy", "grid", "-workers", "4", "-epochs", "2", "-ranks", "2", "-seed", "1", "-db", db)
	if !strings.Contains(out, "best: lr=") {
		t.Fatalf("no winner reported:\n%s", out)
	}
	if _, err := os.Stat(db); err != nil {
		t.Fatal(err)
	}
}

func TestRunSupervisorRandom(t *testing.T) {
	mustCandle(t, "supervisor", "-bench", "P1B2", "-strategy", "random", "-trials", "2", "-workers", "2", "-epochs", "2", "-ranks", "2", "-seed", "1")
}

func TestRunSupervisorErrors(t *testing.T) {
	if code, _, _ := candleCLI("supervisor", "-bench", "NT99", "-workers", "1", "-epochs", "1", "-ranks", "1"); code != 1 {
		t.Fatal("bad benchmark accepted")
	}
	if code, _, _ := candleCLI("supervisor", "-strategy", "annealing", "-workers", "1", "-epochs", "1", "-ranks", "1"); code != 1 {
		t.Fatal("bad strategy accepted")
	}
}
