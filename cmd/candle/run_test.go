package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"candle/internal/candle"
	"candle/internal/trace"
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
		{"run/negative epochs", []string{"run", "-ranks", "6", "-epochs", "-5"}},
		{"run/negative batch", []string{"run", "-ranks", "6", "-batch", "-3"}},
		{"run/timeline, bad loader", []string{"run", "-ranks", "4", "-loader", "warp", "-timeline", filepath.Join(ckpt, "x.json")}},
		{"run/timeline, bad benchmark", []string{"run", "-bench", "NT99", "-ranks", "4", "-timeline", filepath.Join(ckpt, "x.json")}},
		{"run/timeline, unwritable output", []string{"run", "-ranks", "4", "-timeline", "/nonexistent/dir/x.json"}},
		{"run/power, unwritable output", []string{"run", "-ranks", "4", "-power", "/nonexistent/dir/x.csv"}},
	} {
		if code, _, stderr := candleCLI(tc.args...); code != 1 {
			t.Errorf("%s: exit %d, want 1\n%s", tc.name, code, stderr)
		}
	}
}

// TestRunModeOnlyFlags: a flag only the other mode reads is a usage
// error naming it, not a silent no-op (sim mode used to exit 0 and
// write no -timeline or -out file).
func TestRunModeOnlyFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range [][]string{
		{"-out", filepath.Join(dir, "r.json")},
		{"-rendezvous", filepath.Join(dir, "rdv.sock")},
		{"-rendezvous-network", "unix"},
		{"-local-ranks", "2"},
		{"-proc-index", "1"},
		{"-generation", "1"},
		{"-serve-rendezvous"},
	} {
		code, _, stderr := candleCLI(append([]string{"run", "-bench", "NT3", "-ranks", "384"}, tc...)...)
		if code != 2 || !strings.Contains(stderr, tc[0]) {
			t.Errorf("sim mode with %s: exit %d, stderr %q; want 2 naming the flag", tc[0], code, stderr)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "r.json")); err == nil {
		t.Error("refused sim run still wrote -out")
	}
	code, _, stderr := candleCLI("run", "-mode", "real", "-power", filepath.Join(dir, "p.csv"))
	if code != 2 || !strings.Contains(stderr, "-power") {
		t.Errorf("real mode with -power: exit %d, stderr %q; want 2 naming the flag", code, stderr)
	}
}

// readTrace runs `candle run` with -timeline and returns the trace.
func readTrace(t *testing.T, args ...string) *trace.Timeline {
	t.Helper()
	out := filepath.Join(t.TempDir(), "tl.json")
	mustCandle(t, append(append([]string{"run"}, args...), "-timeline", out)...)
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tl, err := trace.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestRunWritesChromeTrace(t *testing.T) {
	tl := readTrace(t, "-bench", "NT3", "-ranks", "384", "-loader", "naive")
	if tl.Len() == 0 {
		t.Fatal("empty timeline")
	}
	if ranks := tl.Ranks(); len(ranks) != 8 {
		t.Fatalf("timeline records ranks %v, want the first 8", ranks)
	}
	if _, end, ok := tl.Span("broadcast"); !ok || end <= 0 {
		t.Fatal("no broadcast span")
	}
	// -machine applies to the timeline too.
	if theta := readTrace(t, "-bench", "NT3", "-machine", "theta", "-ranks", "384"); theta.Len() == 0 {
		t.Fatal("empty theta timeline")
	}
}

func TestRunWeakScaling(t *testing.T) {
	tl := readTrace(t, "-bench", "NT3", "-ranks", "768", "-epochs", "8", "-weak", "-loader", "chunked")
	// One allreduce piece per epoch on every recorded rank (Figure 19).
	if n := len(tl.Filter("NCCL_allreduce")); n != 8*8 {
		t.Fatalf("%d allreduce pieces, want 8 epochs x 8 ranks", n)
	}
}

// powerTrace runs `candle run` with -power and returns the CSV records.
func powerTrace(t *testing.T, args ...string) [][]string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "power.csv")
	stdout := mustCandle(t, append(append([]string{"run"}, args...), "-power", out)...)
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("power: %d samples -> %s", len(recs)-1, out); !strings.Contains(stdout, want) {
		t.Fatalf("stdout does not report %q:\n%s", want, stdout)
	}
	return recs
}

func TestRunPower(t *testing.T) {
	summit := powerTrace(t, "-bench", "NT3", "-ranks", "48")
	if strings.Join(summit[0], ",") != "t_s,watts" || len(summit) < 100 || summit[2][0] != "1" {
		t.Fatalf("summit trace: header %v, %d rows, second sample at %v; want t_s,watts at 1 Hz",
			summit[0], len(summit)-1, summit[2][0])
	}
	theta := powerTrace(t, "-bench", "NT3", "-machine", "theta", "-ranks", "96", "-loader", "chunked")
	if strings.Join(theta[0], ",") != "t_s,watts,node_W,cpu_W,mem_W" || theta[2][0] != "0.5" {
		t.Fatalf("theta trace: header %v, second sample at %v; want the PoLiMEr columns at 2 Hz", theta[0], theta[2][0])
	}
	for _, rec := range theta[1:] {
		if len(rec) != 5 || rec[2] == "" {
			t.Fatalf("theta row %v", rec)
		}
	}
	weak := powerTrace(t, "-bench", "NT3", "-ranks", "768", "-loader", "parallel", "-weak", "-epochs", "8")
	if len(weak) < 100 {
		t.Fatalf("weak-scaling trace has %d rows", len(weak)-1)
	}
}

func TestRunPowerErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad machine":   {"-machine", "frontier"},
		"bad benchmark": {"-bench", "NT99"},
		"bad loader":    {"-loader", "warp"},
	} {
		out := filepath.Join(t.TempDir(), "power.csv")
		if code, _, _ := candleCLI(append([]string{"run", "-ranks", "1", "-power", out}, args...)...); code != 1 {
			t.Errorf("%s: exit %d, want 1", name, code)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%s: wrote a power trace", name)
		}
	}
}

func TestRunPowerUnknownBenchmarkIsActionable(t *testing.T) {
	code, _, stderr := candleCLI("run", "-bench", "NT99", "-ranks", "1", "-power", filepath.Join(t.TempDir(), "p.csv"))
	if code != 1 {
		t.Fatalf("unknown benchmark: exit %d, want 1", code)
	}
	// The message the CLI prints must list the valid pilot names.
	for _, want := range []string{"NT3", "P1B1", "P1B2", "P1B3"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("error %q does not mention %s", stderr, want)
		}
	}
}
