package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"candle/internal/candle"
)

func TestRunSimMode(t *testing.T) {
	mustCandle(t, "run", "-bench", "NT3", "-mode", "sim", "-machine", "summit", "-ranks", "48", "-loader", "chunked", "-seed", "1")
	mustCandle(t, "run", "-bench", "NT3", "-ranks", "768", "-epochs", "8", "-weak")
	mustCandle(t, "run", "-bench", "P1B1", "-machine", "theta", "-ranks", "24", "-loader", "parallel")
}

func TestRunRealMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	mustCandle(t, "run", "-bench", "NT3", "-mode", "real", "-ranks", "2", "-epochs", "4", "-batch", "7",
		"-loader", "chunked", "-scale-lr", "-seed", "3", "-data-dir", t.TempDir(), "-out", out)
	if wr := readResult(out); wr == nil || len(wr.Ranks) != 2 || wr.FailedRank != -1 {
		t.Fatalf("-out result %+v, want 2 ranks and no failure", wr)
	}
}

// TestRunRealServeRendezvous exercises the hand-run two-terminal form
// the README documents: -serve-rendezvous makes worker 0 host the
// round at the agreed address — and prepare the shared CSVs — while a
// second `candle run` joins the same address and only reads them.
func TestRunRealServeRendezvous(t *testing.T) {
	addr := filepath.Join(t.TempDir(), "rdv.sock")
	dataDir := t.TempDir()
	worker := func(proc string, extra ...string) []string {
		return append([]string{"run", "-bench", "NT3", "-mode", "real", "-ranks", "2", "-epochs", "2", "-batch", "7",
			"-loader", "chunked", "-scale-lr", "-seed", "3", "-data-dir", dataDir,
			"-transport", "unix", "-rendezvous", addr, "-local-ranks", "1", "-proc-index", proc}, extra...)
	}
	type result struct {
		code   int
		stderr string
	}
	hostDone := make(chan result, 1)
	go func() {
		code, _, stderr := candleCLI(worker("0", "-serve-rendezvous")...)
		hostDone <- result{code, stderr}
	}()

	// The host writes the dataset before it opens the round, so once the
	// socket exists the CSVs are final: the joining worker must leave
	// them exactly as they are.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(addr); err == nil {
			break
		}
		select {
		case r := <-hostDone:
			t.Fatalf("host exited %d before serving the round:\n%s", r.code, r.stderr)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("host never opened the rendezvous socket")
		}
	}
	b, err := candle.Default("NT3")
	if err != nil {
		t.Fatal(err)
	}
	trainPath, testPath := b.Files(dataDir)
	before := map[string]time.Time{}
	for _, p := range []string{trainPath, testPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("host opened the round before preparing %s: %v", p, err)
		}
		before[p] = st.ModTime()
	}

	if code, _, stderr := candleCLI(worker("1")...); code != 0 {
		t.Fatalf("joining worker: exit %d\n%s", code, stderr)
	}
	if r := <-hostDone; r.code != 0 {
		t.Fatalf("hosting worker: exit %d\n%s", r.code, r.stderr)
	}
	for p, mod := range before {
		if st, err := os.Stat(p); err != nil || !st.ModTime().Equal(mod) {
			t.Errorf("joining worker rewrote %s (mtime %v -> %v, err %v)", p, mod, st.ModTime(), err)
		}
	}
}

// TestRunErrors covers, per subcommand, the command lines that must be
// refused with exit 1 before anything is started.
func TestRunErrors(t *testing.T) {
	ckpt := t.TempDir() // empty: nothing servable
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"run/bad mode", []string{"run", "-mode", "bogus"}},
		{"run/bad machine", []string{"run", "-machine", "frontier"}},
		{"run/bad loader", []string{"run", "-loader", "warp"}},
		{"run/bad benchmark", []string{"run", "-bench", "NT99"}},
		{"run/OOM batch", []string{"run", "-ranks", "6", "-batch", "50"}},
		{"serve/missing -dir", []string{"serve", "-bench", "NT3"}},
		{"serve/-register without -replica-id", []string{"serve", "-dir", ckpt, "-register", "127.0.0.1:1"}},
		{"serve/bad benchmark", []string{"serve", "-bench", "NT99", "-dir", ckpt, "-sample-div", "1", "-feature-div", "1"}},
		{"serve/no checkpoint, no -bootstrap", []string{"serve", "-dir", ckpt, "-addr", "127.0.0.1:0", "-sample-div", "40", "-feature-div", "4000"}},
		{"fleet/missing -dir", []string{"fleet", "-replicas", "1"}},
		{"fleet/zero replicas", []string{"fleet", "-dir", ckpt, "-replicas", "0"}},
		{"fleet/bad benchmark", []string{"fleet", "-bench", "NT99", "-dir", ckpt, "-replicas", "1", "-sample-div", "1", "-feature-div", "1"}},
		{"fleet/no checkpoint, no -bootstrap", []string{"fleet", "-dir", ckpt, "-addr", "127.0.0.1:0", "-sample-div", "40", "-feature-div", "4000"}},
		{"timeline/bad loader", []string{"timeline", "-ranks", "4", "-loader", "warp", "-o", filepath.Join(ckpt, "x.json")}},
		{"timeline/bad benchmark", []string{"timeline", "-bench", "NT99", "-ranks", "4", "-o", filepath.Join(ckpt, "x.json")}},
		{"timeline/unwritable output", []string{"timeline", "-ranks", "4", "-o", "/nonexistent/dir/x.json"}},
	} {
		if code, _, stderr := candleCLI(tc.args...); code != 1 {
			t.Errorf("%s: exit %d, want 1\n%s", tc.name, code, stderr)
		}
	}
}
