package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"candle/internal/candle"
)

// fleetArgs is a tiny `candle fleet` command line: bootstrap one epoch
// of scaled NT3, two replica processes, reload only on request.
func fleetArgs(dir string) []string {
	return []string{"fleet", "-bench", "NT3", "-dir", dir, "-addr", "127.0.0.1:0", "-ctl-addr", "127.0.0.1:0",
		"-replicas", "2", "-sample-div", "40", "-feature-div", "4000", "-max-batch", "8", "-max-wait", "1ms",
		"-queue", "64", "-reload-every", "-1s", "-health-every", "50ms", "-respawn",
		"-bootstrap", "-bootstrap-epochs", "1"}
}

type fleetHealthView struct {
	Status  string `json:"status"`
	Members []struct {
		ID      string `json:"id"`
		Pid     int    `json:"pid"`
		Healthy bool   `json:"healthy"`
	} `json:"members"`
}

func fetchFleetHealth(t *testing.T, base string) (fleetHealthView, bool) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return fleetHealthView{}, false
	}
	defer resp.Body.Close()
	var h fleetHealthView
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fleetHealthView{}, false
	}
	return h, true
}

func waitFleet(t *testing.T, base, what string, timeout time.Duration, cond func(fleetHealthView) bool) fleetHealthView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if h, ok := fetchFleetHealth(t, base); ok && cond(h) {
			return h
		}
		time.Sleep(25 * time.Millisecond)
	}
	h, _ := fetchFleetHealth(t, base)
	t.Fatalf("timed out waiting for %s; last healthz: %+v", what, h)
	return fleetHealthView{}
}

func healthyCount(h fleetHealthView) int {
	n := 0
	for _, m := range h.Members {
		if m.Healthy {
			n++
		}
	}
	return n
}

// TestFleetSmoke is the whole arc with real processes: a `candle fleet`
// process bootstraps, spawns two `candle serve` replica processes that
// register over the control plane, takes live traffic, survives a real
// SIGKILL of one replica under load (the router drains around it —
// zero failed admitted requests), respawns it back into its slot, and
// drains the whole fleet on SIGTERM with exit 0. `make fleet-smoke`
// runs this.
func TestFleetSmoke(t *testing.T) {
	c := startCandle(t, fleetArgs(t.TempDir())...)
	base := "http://" + c.waitLog(t, `router up: clients (\S+),`, 120*time.Second)[1]

	// Both replica processes register and come up healthy.
	waitFleet(t, base, "2 healthy replicas", 60*time.Second, func(h fleetHealthView) bool {
		return h.Status == "ok" && healthyCount(h) == 2
	})

	// Live traffic for the rest of the test.
	b, err := candle.Scaled("NT3", 40, 4000)
	if err != nil {
		t.Fatal(err)
	}
	features, _ := json.Marshal(make([]float64, b.Spec.Features))
	body := fmt.Sprintf(`{"features":%s}`, features)
	stop := make(chan struct{})
	var mu sync.Mutex
	statuses := map[int]int{}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(base+"/predict", "application/json", strings.NewReader(body))
				mu.Lock()
				if err != nil {
					statuses[-1]++
				} else {
					resp.Body.Close()
					statuses[resp.StatusCode]++
				}
				mu.Unlock()
			}
		}()
	}

	// SIGKILL one replica process mid-load: no drain, no goodbye.
	h, ok := fetchFleetHealth(t, base)
	if !ok || len(h.Members) == 0 {
		t.Fatal("no members to kill")
	}
	victim := h.Members[0]
	if victim.Pid <= 0 {
		t.Fatalf("member %s has no pid", victim.ID)
	}
	if err := syscall.Kill(victim.Pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	// The router drains the corpse around live traffic...
	waitFleet(t, base, "victim drained", 30*time.Second, func(h fleetHealthView) bool {
		return healthyCount(h) < 2
	})
	// ...and the supervisor respawns it back into its old slot.
	waitFleet(t, base, "victim respawned", 60*time.Second, func(h fleetHealthView) bool {
		return h.Status == "ok" && healthyCount(h) == 2
	})

	close(stop)
	wg.Wait()
	mu.Lock()
	failed := statuses[-1]
	for code, n := range statuses {
		if code >= 500 {
			failed += n
		}
	}
	served := statuses[http.StatusOK]
	mu.Unlock()
	if failed != 0 {
		t.Fatalf("%d admitted requests failed across the kill (statuses %v)", failed, statuses)
	}
	if served == 0 {
		t.Fatal("load loop recorded no successes")
	}
	t.Logf("kill survived: statuses %v", statuses)

	// SIGTERM: the fleet drains its replicas, then the router, and
	// leaves no process behind.
	h, _ = fetchFleetHealth(t, base)
	c.g.Signal("cli", syscall.SIGTERM)
	if code := c.waitExit(t, 60*time.Second); code != 0 {
		t.Fatalf("fleet exited %d after SIGTERM, want 0\n%s", code, c.stderr.String())
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("router still answering after drain")
	}
	for _, m := range h.Members {
		if syscall.Kill(m.Pid, 0) == nil {
			t.Errorf("replica %s (pid %d) outlived the fleet", m.ID, m.Pid)
		}
	}
}
