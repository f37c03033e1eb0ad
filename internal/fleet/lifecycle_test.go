package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"candle/internal/checkpoint"
	"candle/internal/nn"
	"candle/internal/serve"
)

// Replica lifecycle edges, against real serve.Servers (real weights,
// real micro-batcher, real staged-reload endpoints): joining under
// load, dying abruptly mid-load, corrupt checkpoints, and the pinned
// guarantee that no client ever observes the fleet's generation mixed
// or moving backwards.

const (
	lcBench = "T"
	lcDim   = 6
)

func lcFactory() *nn.Sequential {
	return nn.NewSequential("t",
		nn.NewDense(8), nn.NewReLU(),
		nn.NewDense(3), nn.NewSoftmax(),
	)
}

func lcWriteCkpt(t *testing.T, dir string, epoch int, seed int64) {
	t.Helper()
	m := lcFactory()
	if err := m.Compile(lcDim, nn.CategoricalCrossEntropy{}, nn.NewSGD(0.01), seed); err != nil {
		t.Fatal(err)
	}
	s := &checkpoint.Snapshot{
		Benchmark: lcBench,
		Epoch:     epoch,
		Step:      epoch * 100,
		Weights:   m.WeightsVector(),
	}
	if err := checkpoint.Save(checkpoint.FileFor(dir, lcBench, epoch), s); err != nil {
		t.Fatal(err)
	}
}

func lcCorruptCkpt(t *testing.T, dir string, epoch int) {
	t.Helper()
	path := checkpoint.FileFor(dir, lcBench, epoch)
	if err := os.WriteFile(path, []byte("partial write, no footer"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// realReplica is a live serve.Server behind an httptest listener
// (which can sever its client connections, standing in for an abrupt
// process death in-process; `candle fleet`'s smoke test does it
// with a real SIGKILL).
type realReplica struct {
	id  string
	s   *serve.Server
	srv *httptest.Server
}

func (rr *realReplica) addr() string { return rr.srv.Listener.Addr().String() }

func startRealReplica(t *testing.T, id, dir string) *realReplica {
	t.Helper()
	s, err := serve.New(serve.Config{
		Benchmark:   lcBench,
		Dir:         dir,
		Factory:     lcFactory,
		Loss:        nn.CategoricalCrossEntropy{},
		InputDim:    lcDim,
		MaxBatch:    8,
		MaxWait:     time.Millisecond,
		Replicas:    1,
		QueueDepth:  256,
		ReloadEvery: -1, // reloads are the router's call
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	rr := &realReplica{id: id, s: s, srv: srv}
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return rr
}

func registerReal(t *testing.T, ctlAddr string, rr *realReplica) {
	t.Helper()
	epoch, step := rr.s.Generation()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := Register(ctx, "tcp", ctlAddr, rr.id, rr.addr(), epoch, step); err != nil {
		t.Fatalf("registering %s: %v", rr.id, err)
	}
}

const lcBody = `{"features":[0.1,0.2,0.3,0.4,0.5,0.6]}`

// TestRouterRejectsBadRequests: the router forwards /predict bodies
// unparsed, so the replica's strict decoder is the one validator, and
// its typed 400s pass through the router unchanged. A routing hint in
// the body (priority, session) is an unknown field to that decoder.
func TestRouterRejectsBadRequests(t *testing.T) {
	dir := t.TempDir()
	lcWriteCkpt(t, dir, 1, 42)
	_, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	registerReal(t, ctlAddr, startRealReplica(t, "a", dir))

	for _, tc := range []struct{ name, body, code string }{
		{"empty", "", "empty_body"},
		{"garbage", "{not json", "bad_json"},
		{"priority_field", `{"features":[0.1,0.2,0.3,0.4,0.5,0.6],"priority":"high"}`, "bad_json"},
		{"session_field", `{"features":[0.1,0.2,0.3,0.4,0.5,0.6],"session":"abc"}`, "bad_json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, decoded := postPredict(t, baseURL, tc.body)
			if resp.StatusCode != http.StatusBadRequest || decoded["code"] != tc.code {
				t.Fatalf("%d %v, want 400 %q", resp.StatusCode, decoded, tc.code)
			}
			if resp.Header.Get("X-Served-By") != "a" {
				t.Fatal("rejection did not come from the replica")
			}
		})
	}
}

func TestLifecycleCoordinatedReload(t *testing.T) {
	dir := t.TempDir()
	lcWriteCkpt(t, dir, 1, 42)
	r, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	registerReal(t, ctlAddr, startRealReplica(t, "a", dir))
	registerReal(t, ctlAddr, startRealReplica(t, "b", dir))

	resp, decoded := postPredict(t, baseURL, lcBody)
	if resp.StatusCode != http.StatusOK || decoded["epoch"].(float64) != 1 {
		t.Fatalf("pre-reload: %d %v", resp.StatusCode, decoded)
	}

	lcWriteCkpt(t, dir, 2, 43)
	epoch, step, err := r.Reload()
	if err != nil || epoch != 2 || step != 200 {
		t.Fatalf("Reload = (%d, %d, %v), want (2, 200, nil)", epoch, step, err)
	}
	for i := 0; i < 10; i++ {
		if _, decoded = postPredict(t, baseURL, lcBody); decoded["epoch"].(float64) != 2 {
			t.Fatalf("post-reload response on old generation: %v", decoded)
		}
	}
}

// TestLifecycleCorruptNewestHoldsFleet: one replica's copy of the
// newest checkpoint is damaged; the fleet generation must not
// advance, and the router's /healthz must say why.
func TestLifecycleCorruptNewestHoldsFleet(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	lcWriteCkpt(t, dirA, 1, 42)
	lcWriteCkpt(t, dirB, 1, 42)
	r, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	registerReal(t, ctlAddr, startRealReplica(t, "a", dirA))
	registerReal(t, ctlAddr, startRealReplica(t, "b", dirB))

	// Epoch 2 lands intact on b, torn on a.
	lcWriteCkpt(t, dirB, 2, 43)
	lcCorruptCkpt(t, dirA, 2)

	if _, _, err := r.Reload(); !errors.Is(err, ErrReloadHeldBack) {
		t.Fatalf("reload with a torn checkpoint: %v, want ErrReloadHeldBack", err)
	}
	if e, _ := r.Generation(); e != 1 {
		t.Fatalf("fleet advanced to epoch %d past an unloadable copy", e)
	}
	h := getHealth(t, baseURL)
	if h["status"] != "degraded" || h["last_reload_error"] == "" {
		t.Fatalf("healthz = %v, want degraded + reason", h)
	}
	// Every response still comes from epoch 1 — no half-upgraded fleet.
	for i := 0; i < 10; i++ {
		if _, decoded := postPredict(t, baseURL, lcBody); decoded["epoch"].(float64) != 1 {
			t.Fatalf("mixed generation served during held-back round: %v", decoded)
		}
	}

	// The torn file is replaced by a good copy: fleet advances.
	lcWriteCkpt(t, dirA, 2, 43)
	if epoch, _, err := r.Reload(); err != nil || epoch != 2 {
		t.Fatalf("reload after repair = (%d, _, %v)", epoch, err)
	}
}

// loadLoop hammers the router from `clients` goroutines until stop
// closes, recording per-client status counts and epoch sequences.
type loadResult struct {
	mu       sync.Mutex
	wg       sync.WaitGroup
	stop     chan struct{}
	statuses map[int]int
	epochSeq [][]float64 // per-client observed epochs, in order
}

// halt stops the clients and waits for them; only after halt returns
// is it safe to read statuses/epochSeq without the lock.
func (res *loadResult) halt() {
	close(res.stop)
	res.wg.Wait()
}

func runLoadLoop(t *testing.T, baseURL string, clients int) *loadResult {
	t.Helper()
	res := &loadResult{
		stop:     make(chan struct{}),
		statuses: make(map[int]int),
		epochSeq: make([][]float64, clients),
	}
	stop := res.stop
	for c := 0; c < clients; c++ {
		res.wg.Add(1)
		go func(c int) {
			defer res.wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, decoded := postPredict(t, baseURL, lcBody)
				res.mu.Lock()
				res.statuses[resp.StatusCode]++
				if e, ok := decoded["epoch"].(float64); ok {
					res.epochSeq[c] = append(res.epochSeq[c], e)
				}
				res.mu.Unlock()
			}
		}(c)
	}
	return res
}

// failures counts 5xx responses; call after halt.
func (res *loadResult) failures() int {
	n := 0
	for code, count := range res.statuses {
		if code >= 500 {
			n += count
		}
	}
	return n
}

// TestJoinMidLoad: a replica registering while traffic is flowing
// starts taking a share of it without any request failing.
func TestJoinMidLoad(t *testing.T) {
	dir := t.TempDir()
	lcWriteCkpt(t, dir, 1, 42)
	_, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	registerReal(t, ctlAddr, startRealReplica(t, "a", dir))

	res := runLoadLoop(t, baseURL, 4)
	time.Sleep(50 * time.Millisecond)

	late := startRealReplica(t, "b", dir)
	registerReal(t, ctlAddr, late)
	// The joiner takes traffic (the router rebuilt its route set).
	waitFor(t, "joiner serving", func() bool { return late.s.Metrics().Requests() > 0 })
	res.halt()

	if n := res.failures(); n != 0 {
		t.Fatalf("%d requests failed while a replica joined (statuses %v)", n, res.statuses)
	}
}

// TestKillMidLoad: a replica dying abruptly under load (connections
// severed, no drain) must not fail any admitted request — the router
// retries them on the survivor. Zero 5xx is the bar.
func TestKillMidLoad(t *testing.T) {
	dir := t.TempDir()
	lcWriteCkpt(t, dir, 1, 42)
	r, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	registerReal(t, ctlAddr, startRealReplica(t, "a", dir))
	victim := startRealReplica(t, "b", dir)
	registerReal(t, ctlAddr, victim)

	res := runLoadLoop(t, baseURL, 4)
	time.Sleep(50 * time.Millisecond)

	// Abrupt death: open connections reset, port goes dark.
	victim.srv.CloseClientConnections()
	victim.srv.Close()

	// Keep the load up through detection and drain.
	waitFor(t, "victim drained", func() bool {
		for _, m := range r.Members() {
			if m.ID == "b" {
				return !m.Healthy
			}
		}
		return false
	})
	time.Sleep(50 * time.Millisecond)
	res.halt()

	if n := res.failures(); n != 0 {
		t.Fatalf("%d admitted requests failed across a replica kill (statuses %v)", n, res.statuses)
	}
	if ok := res.statuses[http.StatusOK]; ok == 0 {
		t.Fatal("load loop recorded no successes")
	}
}

// TestReloadAtomicUnderLoad pins the fleet's central guarantee: with
// requests in flight through two reload rounds, every client sees its
// sequence of serving generations monotonically non-decreasing —
// never mixed, never backwards. The clients carry no routing hint:
// each request lands on whichever replica pick2 chooses, so what holds
// the order is the pause lock every proxied request holds across a
// commit wave, not replica affinity.
func TestReloadAtomicUnderLoad(t *testing.T) {
	dir := t.TempDir()
	lcWriteCkpt(t, dir, 1, 42)
	r, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	registerReal(t, ctlAddr, startRealReplica(t, "a", dir))
	registerReal(t, ctlAddr, startRealReplica(t, "b", dir))

	res := runLoadLoop(t, baseURL, 4)

	for epoch := 2; epoch <= 3; epoch++ {
		time.Sleep(30 * time.Millisecond)
		lcWriteCkpt(t, dir, epoch, int64(40+epoch))
		if got, _, err := r.Reload(); err != nil || got != epoch {
			t.Fatalf("Reload to %d = (%d, _, %v)", epoch, got, err)
		}
	}
	time.Sleep(30 * time.Millisecond)
	res.halt()

	if n := res.failures(); n != 0 {
		t.Fatalf("%d requests failed across reloads (statuses %v)", n, res.statuses)
	}
	sawTransition := false
	for c, seq := range res.epochSeq {
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				t.Fatalf("client %d observed generation going backwards: %v -> %v (seq %v)",
					c, seq[i-1], seq[i], seq)
			}
			if seq[i] != seq[i-1] {
				sawTransition = true
			}
		}
		if len(seq) > 0 && seq[len(seq)-1] != 3 {
			t.Fatalf("client %d ended on epoch %v, want 3", c, seq[len(seq)-1])
		}
	}
	if !sawTransition {
		t.Fatal("no client observed a generation transition; the test raced past the reloads")
	}
}
