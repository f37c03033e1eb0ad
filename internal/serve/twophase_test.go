package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"testing"

	"candle/internal/checkpoint"
)

// The replica's half of the fleet's two-phase reload protocol:
// stage builds but does not serve, commit is atomic and guarded by
// the generation the coordinator saw, abort is always safe.

func corruptCkpt(t *testing.T, dir string, epoch int) {
	t.Helper()
	path := checkpoint.FileFor(dir, testBench, epoch)
	if err := os.WriteFile(path, []byte("partial write, no footer"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStageCommitAbort(t *testing.T) {
	dir := t.TempDir()
	writeCkpt(t, dir, 1, 42)
	s := newTestServer(t, testConfig(dir))
	writeCkpt(t, dir, 2, 43)

	epoch, step, skipped, err := s.PeekLatest()
	if err != nil || epoch != 2 || step != 200 || skipped != 0 {
		t.Fatalf("PeekLatest = (%d, %d, %d, %v), want (2, 200, 0, nil)", epoch, step, skipped, err)
	}

	// Committing before staging is a typed error.
	if err := s.CommitStaged(2, 200); !errors.Is(err, ErrNoStaged) {
		t.Fatalf("commit before stage: got %v, want ErrNoStaged", err)
	}

	// Staging parks the new generation without serving it.
	epoch, step, err = s.StageReload()
	if err != nil || epoch != 2 || step != 200 {
		t.Fatalf("StageReload = (%d, %d, %v), want (2, 200, nil)", epoch, step, err)
	}
	if e, _ := s.Generation(); e != 1 {
		t.Fatalf("staging advanced the serving generation to %d", e)
	}

	// A commit for a generation other than the staged one is refused
	// and the stage survives.
	if err := s.CommitStaged(3, 300); !errors.Is(err, ErrStageMismatch) {
		t.Fatalf("mismatched commit: got %v, want ErrStageMismatch", err)
	}
	if err := s.CommitStaged(2, 200); err != nil {
		t.Fatal(err)
	}
	if e, st := s.Generation(); e != 2 || st != 200 {
		t.Fatalf("after commit: generation (%d, %d), want (2, 200)", e, st)
	}
	// The stage is consumed: a second commit has nothing to apply.
	if err := s.CommitStaged(2, 200); !errors.Is(err, ErrNoStaged) {
		t.Fatalf("double commit: got %v, want ErrNoStaged", err)
	}

	// Abort drops a staged set without serving it.
	writeCkpt(t, dir, 3, 44)
	if _, _, err := s.StageReload(); err != nil {
		t.Fatal(err)
	}
	s.AbortStaged()
	if err := s.CommitStaged(3, 300); !errors.Is(err, ErrNoStaged) {
		t.Fatalf("commit after abort: got %v, want ErrNoStaged", err)
	}
	if e, _ := s.Generation(); e != 2 {
		t.Fatalf("abort changed the serving generation to %d", e)
	}
}

// TestPeekReportsCorruptNewest: a damaged newest checkpoint shows up
// as a skip in PeekLatest — the signal the fleet coordinator uses to
// hold the fleet generation back.
func TestPeekReportsCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	writeCkpt(t, dir, 1, 42)
	writeCkpt(t, dir, 2, 43)
	s := newTestServer(t, testConfig(dir))
	corruptCkpt(t, dir, 3)

	epoch, step, skipped, err := s.PeekLatest()
	if err != nil || epoch != 2 || step != 200 || skipped != 1 {
		t.Fatalf("PeekLatest = (%d, %d, %d, %v), want (2, 200, 1, nil)", epoch, step, skipped, err)
	}
	// Staging routes around the damage the same way.
	if epoch, _, err = s.StageReload(); err != nil || epoch != 2 {
		t.Fatalf("StageReload = (%d, _, %v), want epoch 2", epoch, err)
	}
	s.AbortStaged()
}

func TestHTTPReloadControlPlane(t *testing.T) {
	dir := t.TempDir()
	writeCkpt(t, dir, 1, 42)
	s := newTestServer(t, testConfig(dir))
	url := startHTTP(t, s)
	writeCkpt(t, dir, 2, 43)

	getJSON := func(path string, want int) map[string]any {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return m
	}
	post := func(path, body string, want int) map[string]any {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			var m map[string]any
			_ = json.NewDecoder(resp.Body).Decode(&m)
			t.Fatalf("POST %s = %d, want %d (%v)", path, resp.StatusCode, want, m)
		}
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return m
	}

	if m := getJSON("/ckpt/latest", http.StatusOK); m["epoch"].(float64) != 2 {
		t.Fatalf("/ckpt/latest = %v, want epoch 2", m)
	}
	if m := post("/reload/stage", "", http.StatusOK); m["epoch"].(float64) != 2 {
		t.Fatalf("/reload/stage = %v, want epoch 2", m)
	}
	// Commit body is strictly decoded.
	if m := post("/reload/commit", `{"epoch":2,"step":200,"x":1}`, http.StatusBadRequest); m["code"] != "bad_json" {
		t.Fatalf("unknown field: %v", m)
	}
	// Mismatched commit: 409, stage intact.
	if m := post("/reload/commit", `{"epoch":9,"step":900}`, http.StatusConflict); m["code"] != "stage_conflict" {
		t.Fatalf("mismatched commit: %v", m)
	}
	post("/reload/commit", `{"epoch":2,"step":200}`, http.StatusOK)
	if h := getJSON("/healthz", http.StatusOK); h["epoch"].(float64) != 2 {
		t.Fatalf("healthz after commit = %v, want epoch 2", h)
	}
	// The stage was consumed: 409 again.
	post("/reload/commit", `{"epoch":2,"step":200}`, http.StatusConflict)

	// Abort is idempotent and bodyless.
	resp, err := http.Post(url+"/reload/abort", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("abort = %d, want 204", resp.StatusCode)
	}

	// Wrong methods are 405s.
	getJSON("/reload/stage", http.StatusMethodNotAllowed)
	post("/ckpt/latest", "", http.StatusMethodNotAllowed)
}
