package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"candle/internal/fleet"
)

// serveArgs is a tiny, fast `candle serve` command line: bootstrap
// trains a scaled NT3 for one epoch into dir if it has no checkpoint.
func serveArgs(dir string, extra ...string) []string {
	return append([]string{"serve", "-bench", "NT3", "-dir", dir, "-addr", "127.0.0.1:0",
		"-sample-div", "40", "-feature-div", "4000", "-max-batch", "8", "-max-wait", "1ms",
		"-replicas", "2", "-queue", "64", "-reload-every", "-1s",
		"-bootstrap", "-bootstrap-epochs", "1"}, extra...)
}

// startServe runs `candle serve` as a child process and returns it
// with its base URL once it is listening.
func startServe(t *testing.T, args []string) (*cliChild, string) {
	t.Helper()
	c := startCandle(t, args...)
	m := c.waitLog(t, `serving \S+ .* on (\S+) \(`, 60*time.Second)
	return c, "http://" + m[1]
}

// TestServeLifecycle runs the subcommand's whole arc as a real
// process: bootstrap training, HTTP serving, and SIGTERM-triggered
// graceful drain with exit 0. It serves with -max-wait 0, which means
// take only what is queued, not the 2ms default.
func TestServeLifecycle(t *testing.T) {
	c, base := startServe(t, serveArgs(t.TempDir(), "-max-wait", "0"))

	// A /predict round trip through the real HTTP stack.
	features := make([]float64, 15) // NT3 features / 4000
	body, _ := json.Marshal(map[string]any{"features": features})
	resp, err := http.Post(base+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pred struct {
		Prediction []float64 `json:"prediction"`
		Epoch      int       `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict status %d", resp.StatusCode)
	}
	if len(pred.Prediction) == 0 {
		t.Fatalf("bad prediction response: %+v", pred)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := struct {
		Status         string  `json:"status"`
		MaxWaitSeconds float64 `json:"max_wait_seconds"`
	}{MaxWaitSeconds: -1}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.MaxWaitSeconds != 0 {
		t.Fatalf("healthz status %q, max_wait_seconds %v; want ok, 0", health.Status, health.MaxWaitSeconds)
	}

	c.g.Signal("cli", syscall.SIGTERM)
	if code := c.waitExit(t, 60*time.Second); code != 0 {
		t.Fatalf("serve exited %d after SIGTERM, want 0\n%s", code, c.stderr.String())
	}
	// The drained server is gone: a new request must fail to connect.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still answering after drain")
	}
}

// TestBootstrapReusesCheckpoint makes sure a second run against the
// same directory serves the existing checkpoint instead of retraining.
func TestBootstrapReusesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		start := time.Now()
		c, _ := startServe(t, serveArgs(dir))
		elapsed := time.Since(start)
		c.g.Signal("cli", syscall.SIGTERM)
		if code := c.waitExit(t, 60*time.Second); code != 0 {
			t.Fatalf("run %d: exit %d\n%s", i, code, c.stderr.String())
		}
		trained := strings.Contains(c.stderr.String(), "bootstrap: training")
		if trained != (i == 0) {
			t.Fatalf("run %d (ready in %v): trained = %v, want training only on the first start\n%s",
				i, elapsed, trained, c.stderr.String())
		}
	}
}

// TestRegisterWithFleet starts a fleet router in-process and a
// `candle serve -register` process pointed at its control plane — the
// exact child `candle fleet` spawns: the server must appear as a
// healthy fleet member, and drain on SIGTERM.
func TestRegisterWithFleet(t *testing.T) {
	r := fleet.NewRouter(fleet.Config{HealthEvery: 20 * time.Millisecond, ReloadEvery: -1})
	ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.ServeControl(ctlLn) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = r.Shutdown(ctx)
	})

	c, _ := startServe(t, serveArgs(t.TempDir(), "-register", ctlLn.Addr().String(), "-replica-id", "s0"))
	deadline := time.Now().Add(10 * time.Second)
	for {
		members := r.Members()
		if len(members) == 1 && members[0].ID == "s0" && members[0].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became a healthy member: %+v\n%s", members, c.stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.g.Signal("cli", syscall.SIGTERM)
	if code := c.waitExit(t, 60*time.Second); code != 0 {
		t.Fatalf("serve exited %d after SIGTERM, want 0\n%s", code, c.stderr.String())
	}
}

// TestServeEngineFlags: an engine flag the server cannot honour exits
// 2 naming it, from `serve` and from `fleet` before it spawns a
// replica, rather than serving on a silently substituted default.
func TestServeEngineFlags(t *testing.T) {
	for _, sub := range []string{"serve", "fleet"} {
		for _, tc := range [][]string{
			{"-max-batch", "0"},
			{"-max-batch", "-3"},
			{"-queue", "0"},
			{"-queue", "-1"},
			{"-max-wait", "-1ms"},
		} {
			args := append([]string{sub, "-dir", t.TempDir(), "-addr", "127.0.0.1:0"}, tc...)
			code, _, stderr := candleCLI(args...)
			if code != 2 || !strings.Contains(stderr, tc[0]) {
				t.Errorf("%s %s %s: exit %d, stderr %q; want 2 naming the flag", sub, tc[0], tc[1], code, stderr)
			}
		}
	}
}
