package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ---- test scaffolding ----------------------------------------------
//
// fakeReplica speaks exactly the replica surface the router consumes
// (/predict, /healthz, /ckpt/latest, /reload/*) with scriptable
// state, so routing/health/reload logic is testable without model
// weights; lifecycle_test.go re-runs the critical paths against real
// serve.Servers.

type fakeReplica struct {
	id  string
	srv *httptest.Server

	mu          sync.Mutex
	epoch, step int // serving generation
	latestE     int // newest loadable generation on "disk"
	latestS     int
	skipped     int // damaged-newer files /ckpt/latest reports
	stagedE     int // 0 = nothing staged
	stagedS     int
	healthDown  bool // healthz answers 500
	predictCode int  // nonzero: /predict answers this status
	// block, when set, runs at the start of /reload/stage and
	// /reload/commit with the path, outside mu, so a test can hold
	// the router inside one control call.
	block func(path string)

	served atomic.Int64
}

func newFakeReplica(t *testing.T, id string, epoch, step int) *fakeReplica {
	t.Helper()
	f := &fakeReplica{id: id, epoch: epoch, step: step, latestE: epoch, latestS: step}
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", f.handlePredict)
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.HandleFunc("/ckpt/latest", f.handleLatest)
	mux.HandleFunc("/reload/stage", f.handleStage)
	mux.HandleFunc("/reload/commit", f.handleCommit)
	mux.HandleFunc("/reload/abort", f.handleAbort)
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) addr() string { return f.srv.Listener.Addr().String() }

func (f *fakeReplica) set(mutate func(*fakeReplica)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mutate(f)
}

func (f *fakeReplica) handlePredict(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	code, epoch := f.predictCode, f.epoch
	f.mu.Unlock()
	f.served.Add(1)
	if code != 0 {
		w.WriteHeader(code)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"prediction": []float64{0.5}, "epoch": epoch})
}

func (f *fakeReplica) handleHealthz(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.healthDown {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "epoch": f.epoch, "step": f.step, "pid": 4242})
}

func (f *fakeReplica) handleLatest(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"epoch": f.latestE, "step": f.latestS, "skipped": f.skipped})
}

func (f *fakeReplica) blockOn(path string) {
	f.mu.Lock()
	block := f.block
	f.mu.Unlock()
	if block != nil {
		block(path)
	}
}

func (f *fakeReplica) handleStage(w http.ResponseWriter, r *http.Request) {
	f.blockOn(r.URL.Path)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stagedE, f.stagedS = f.latestE, f.latestS
	writeJSON(w, http.StatusOK, map[string]any{"epoch": f.stagedE, "step": f.stagedS})
}

func (f *fakeReplica) handleCommit(w http.ResponseWriter, r *http.Request) {
	f.blockOn(r.URL.Path)
	var gen struct{ Epoch, Step int }
	body, _ := io.ReadAll(r.Body)
	_ = json.Unmarshal(body, &gen)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stagedE == 0 || f.stagedE != gen.Epoch || f.stagedS != gen.Step {
		writeJSON(w, http.StatusConflict, map[string]any{"code": "stage_conflict"})
		return
	}
	f.epoch, f.step = f.stagedE, f.stagedS
	f.stagedE, f.stagedS = 0, 0
	writeJSON(w, http.StatusOK, map[string]any{"epoch": f.epoch, "step": f.step})
}

func (f *fakeReplica) handleAbort(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stagedE, f.stagedS = 0, 0
	w.WriteHeader(http.StatusNoContent)
}

func testRouterConfig() Config {
	return Config{
		HealthEvery:  20 * time.Millisecond,
		ReloadEvery:  -1, // reload only on demand in tests
		ProbeTimeout: time.Second,
	}
}

// newTestRouter starts a router plus its control and HTTP listeners.
func newTestRouter(t *testing.T, cfg Config) (r *Router, ctlAddr, baseURL string) {
	t.Helper()
	r = NewRouter(cfg)
	ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.ServeControl(ctlLn) }()
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Serve(httpLn) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = r.Shutdown(ctx)
	})
	return r, ctlLn.Addr().String(), "http://" + httpLn.Addr().String()
}

func mustRegister(t *testing.T, ctlAddr string, f *fakeReplica) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.mu.Lock()
	epoch, step := f.epoch, f.step
	f.mu.Unlock()
	if _, err := Register(ctx, "tcp", ctlAddr, f.id, f.addr(), epoch, step); err != nil {
		t.Fatalf("registering %s: %v", f.id, err)
	}
}

func postPredict(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&decoded)
	return resp, decoded
}

func getHealth(t *testing.T, baseURL string) map[string]any {
	t.Helper()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&h)
	return h
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// ---- registration + routing ----------------------------------------

func TestRegisterAndBalance(t *testing.T) {
	_, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	a := newFakeReplica(t, "a", 1, 100)
	b := newFakeReplica(t, "b", 1, 100)
	mustRegister(t, ctlAddr, a)
	mustRegister(t, ctlAddr, b)

	const n = 200
	for i := 0; i < n; i++ {
		resp, decoded := postPredict(t, baseURL, `{"features":[1]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%v)", i, resp.StatusCode, decoded)
		}
		if resp.Header.Get("X-Served-By") == "" {
			t.Fatal("response missing X-Served-By")
		}
	}
	sa, sb := a.served.Load(), b.served.Load()
	if sa+sb != n {
		t.Fatalf("replicas served %d+%d, want %d", sa, sb, n)
	}
	// pick2 on equal load splits roughly evenly; 20/80 would mean the
	// sampler is broken, not unlucky.
	if sa < n/5 || sb < n/5 {
		t.Fatalf("lopsided balance: a=%d b=%d", sa, sb)
	}
}

func TestDuplicateJoinRejected(t *testing.T) {
	_, ctlAddr, _ := newTestRouter(t, testRouterConfig())
	a := newFakeReplica(t, "a", 1, 100)
	mustRegister(t, ctlAddr, a)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := Register(ctx, "tcp", ctlAddr, "a", a.addr(), 1, 100)
	if !errors.Is(err, ErrDuplicateReplica) {
		t.Fatalf("duplicate join: got %v, want ErrDuplicateReplica", err)
	}
}

func TestNoReplicas503(t *testing.T) {
	_, _, baseURL := newTestRouter(t, testRouterConfig())
	resp, decoded := postPredict(t, baseURL, `{"features":[1]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || decoded["code"] != "no_replicas" {
		t.Fatalf("empty fleet: %d %v", resp.StatusCode, decoded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
}

// ---- failover + drain-around ---------------------------------------

func TestFailoverOnDeadReplica(t *testing.T) {
	r, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	a := newFakeReplica(t, "a", 1, 100)
	b := newFakeReplica(t, "b", 1, 100)
	mustRegister(t, ctlAddr, a)
	mustRegister(t, ctlAddr, b)

	// Replica a dies without deregistering: its socket goes dark.
	a.srv.Close()

	// Every request still succeeds — attempts on a fail over to b.
	for i := 0; i < 40; i++ {
		resp, decoded := postPredict(t, baseURL, `{"features":[1]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%v)", i, resp.StatusCode, decoded)
		}
		if got := resp.Header.Get("X-Served-By"); got != "b" {
			t.Fatalf("request %d served by %q, want b", i, got)
		}
	}

	// The prober drains a; after that, no more failovers are needed.
	waitFor(t, "replica a drained", func() bool {
		for _, m := range r.Members() {
			if m.ID == "a" {
				return !m.Healthy
			}
		}
		return false
	})
	before := r.metrics.failovers.Load()
	for i := 0; i < 20; i++ {
		resp, _ := postPredict(t, baseURL, `{"features":[1]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-drain request %d: status %d", i, resp.StatusCode)
		}
	}
	if after := r.metrics.failovers.Load(); after != before {
		t.Fatalf("drained replica still being tried: failovers %d -> %d", before, after)
	}
	if h := getHealth(t, baseURL); h["status"] != "degraded" {
		t.Fatalf("healthz status %v with a drained member, want degraded", h["status"])
	}
}

func TestDrainAndRecovery(t *testing.T) {
	r, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	a := newFakeReplica(t, "a", 1, 100)
	b := newFakeReplica(t, "b", 1, 100)
	mustRegister(t, ctlAddr, a)
	mustRegister(t, ctlAddr, b)

	memberHealthy := func(id string) bool {
		for _, m := range r.Members() {
			if m.ID == id {
				return m.Healthy
			}
		}
		return false
	}

	// a degrades (healthz 500s), the prober drains it.
	a.set(func(f *fakeReplica) { f.healthDown = true })
	waitFor(t, "a drained", func() bool { return !memberHealthy("a") })
	a.served.Store(0)
	for i := 0; i < 20; i++ {
		if resp, _ := postPredict(t, baseURL, `{"features":[1]}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("request during drain: %d", resp.StatusCode)
		}
	}
	if got := a.served.Load(); got != 0 {
		t.Fatalf("drained replica served %d requests", got)
	}

	// a recovers; the prober readmits it and traffic returns.
	a.set(func(f *fakeReplica) { f.healthDown = false })
	waitFor(t, "a readmitted", func() bool { return memberHealthy("a") })
	waitFor(t, "traffic back on a", func() bool {
		resp, _ := postPredict(t, baseURL, `{"features":[1]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request after recovery: %d", resp.StatusCode)
		}
		return a.served.Load() > 0
	})
	if h := getHealth(t, baseURL); h["status"] != "ok" {
		t.Fatalf("healthz status %v after recovery, want ok", h["status"])
	}
	// A restarted (dead) replica may re-register under its old id.
	a.set(func(f *fakeReplica) { f.healthDown = true })
	waitFor(t, "a drained again", func() bool { return !memberHealthy("a") })
	mustRegister(t, ctlAddr, a) // would fail were the slot still held
}

// ---- coordinated reload over fakes ---------------------------------

func TestCoordinatedReloadFakes(t *testing.T) {
	r, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	a := newFakeReplica(t, "a", 1, 100)
	b := newFakeReplica(t, "b", 1, 100)
	mustRegister(t, ctlAddr, a)
	mustRegister(t, ctlAddr, b)

	// Nothing newer: no-op.
	if _, _, err := r.Reload(); !errors.Is(err, ErrNothingToReload) {
		t.Fatalf("reload with nothing new: %v", err)
	}

	// A new generation lands on both replicas' storage.
	a.set(func(f *fakeReplica) { f.latestE, f.latestS = 2, 200 })
	b.set(func(f *fakeReplica) { f.latestE, f.latestS = 2, 200 })
	epoch, step, err := r.Reload()
	if err != nil || epoch != 2 || step != 200 {
		t.Fatalf("Reload = (%d, %d, %v), want (2, 200, nil)", epoch, step, err)
	}
	if e, s := r.Generation(); e != 2 || s != 200 {
		t.Fatalf("fleet generation (%d, %d), want (2, 200)", e, s)
	}
	for _, f := range []*fakeReplica{a, b} {
		f.mu.Lock()
		fe := f.epoch
		f.mu.Unlock()
		if fe != 2 {
			t.Fatalf("replica %s still at epoch %d", f.id, fe)
		}
	}
	if h := getHealth(t, baseURL); h["epoch"].(float64) != 2 {
		t.Fatalf("healthz epoch %v, want 2", h["epoch"])
	}
}

func TestReloadHeldBackByCorruptReplica(t *testing.T) {
	r, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	a := newFakeReplica(t, "a", 1, 100)
	b := newFakeReplica(t, "b", 1, 100)
	mustRegister(t, ctlAddr, a)
	mustRegister(t, ctlAddr, b)

	// Epoch 2 lands everywhere, but a's copy is damaged: its newest
	// loadable stays 1 and it reports one skipped file.
	a.set(func(f *fakeReplica) { f.skipped = 1 })
	b.set(func(f *fakeReplica) { f.latestE, f.latestS = 2, 200 })

	_, _, err := r.Reload()
	if !errors.Is(err, ErrReloadHeldBack) {
		t.Fatalf("reload with a corrupt replica: %v, want ErrReloadHeldBack", err)
	}
	if e, _ := r.Generation(); e != 1 {
		t.Fatalf("fleet advanced to epoch %d past a replica that cannot load it", e)
	}
	for _, f := range []*fakeReplica{a, b} {
		f.mu.Lock()
		fe := f.epoch
		f.mu.Unlock()
		if fe != 1 {
			t.Fatalf("replica %s moved to epoch %d during a held-back round", f.id, fe)
		}
	}
	h := getHealth(t, baseURL)
	if h["status"] != "degraded" || h["last_reload_error"] == "" {
		t.Fatalf("healthz = %v, want degraded with a reload error", h)
	}

	// The damaged files are deleted instead of repaired: the next
	// round finds nothing to do — and a clean full peek must clear
	// the stale held-back error rather than leave /healthz degraded
	// forever.
	a.set(func(f *fakeReplica) { f.skipped = 0 })
	b.set(func(f *fakeReplica) { f.latestE, f.latestS = 1, 100 })
	if _, _, err := r.Reload(); !errors.Is(err, ErrNothingToReload) {
		t.Fatalf("reload after deleting damaged files: %v, want ErrNothingToReload", err)
	}
	h = getHealth(t, baseURL)
	if h["status"] != "ok" || h["last_reload_error"] != nil {
		t.Fatalf("healthz after clean peek = %v, want ok with no reload error", h)
	}

	// The damage heals for real: the next round advances and clears
	// the error.
	a.set(func(f *fakeReplica) { f.latestE, f.latestS = 2, 200 })
	b.set(func(f *fakeReplica) { f.latestE, f.latestS = 2, 200 })
	if _, _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	h = getHealth(t, baseURL)
	if h["status"] != "ok" || h["epoch"].(float64) != 2 {
		t.Fatalf("healthz after recovery = %v", h)
	}
}

// TestStaleJoinerCaughtUp: a replica joining behind the fleet
// generation gets no traffic until the router walks it forward.
func TestStaleJoinerCaughtUp(t *testing.T) {
	_, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	a := newFakeReplica(t, "a", 2, 200)
	mustRegister(t, ctlAddr, a)

	// b joins at epoch 1, but its storage holds epoch 2.
	b := newFakeReplica(t, "b", 1, 100)
	b.set(func(f *fakeReplica) { f.latestE, f.latestS = 2, 200 })
	mustRegister(t, ctlAddr, b)

	// Until caught up, traffic goes only to a.
	if resp, _ := postPredict(t, baseURL, `{"features":[1]}`); resp.Header.Get("X-Served-By") != "a" {
		t.Fatal("stale joiner received traffic before catching up")
	}
	// The prober catches b up via stage/commit.
	waitFor(t, "b caught up", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.epoch == 2
	})
	waitFor(t, "b in rotation", func() bool {
		resp, _ := postPredict(t, baseURL, `{"features":[1]}`)
		return resp.Header.Get("X-Served-By") == "b"
	})
}

// ---- route publication ---------------------------------------------

// checkRouteMatchesMembers holds the router to its publication rule:
// under r.mu, the route set is exactly the members Members() would
// call eligible (healthy, at the fleet generation). Anything else is a
// window in which /healthz and the proxy disagree about a replica.
func checkRouteMatchesMembers(t *testing.T, r *Router, when string) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	routed := map[*member]bool{}
	for _, m := range r.route.Load().members {
		routed[m] = true
	}
	fleetGen := r.fleetGen.Load()
	for _, m := range r.members {
		if eligible := m.healthy && m.gen == fleetGen; eligible != routed[m] {
			e, s := unpackGen(m.gen)
			t.Errorf("%s: member %s (healthy %v, epoch %d step %d) eligible %v but routed %v",
				when, m.id, m.healthy, e, s, eligible, routed[m])
		}
	}
}

// heldCall returns the channels a fake's block hook uses to hold one
// control call open: entered is closed by the hook, release by the
// test — or by cleanup, so a failing test never leaves a handler
// blocking its server's Close.
func heldCall(t *testing.T) (entered chan struct{}, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { releaseHeld(release) })
	return entered, release
}

func releaseHeld(release chan struct{}) {
	select {
	case <-release:
	default:
		close(release)
	}
}

// TestCatchUpRoutesAroundStaleReplica: a replica that comes back on
// older weights leaves the route set the moment the prober records its
// generation, not after the catch-up calls that follow. The stage call
// is held open, so the window is as long as the test wants it.
func TestCatchUpRoutesAroundStaleReplica(t *testing.T) {
	r, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	a := newFakeReplica(t, "a", 2, 200)
	b := newFakeReplica(t, "b", 2, 200)
	mustRegister(t, ctlAddr, a)
	mustRegister(t, ctlAddr, b)

	entered, release := heldCall(t)
	var once sync.Once
	a.set(func(f *fakeReplica) {
		f.epoch, f.step = 1, 100 // restarted on epoch 1; storage holds 2
		f.block = func(path string) {
			if path == "/reload/stage" {
				once.Do(func() { close(entered) })
				<-release
			}
		}
	})
	<-entered
	checkRouteMatchesMembers(t, r, "while catching a up")
	for i := 0; i < 20; i++ {
		resp, decoded := postPredict(t, baseURL, `{"features":[1]}`)
		if resp.StatusCode != http.StatusOK || decoded["epoch"] != float64(2) {
			t.Fatalf("request %d during catch-up: status %d, epoch %v (served by %s), want 200 at the fleet's epoch 2",
				i, resp.StatusCode, decoded["epoch"], resp.Header.Get("X-Served-By"))
		}
	}
	releaseHeld(release)
	waitFor(t, "a back in rotation", func() bool {
		resp, _ := postPredict(t, baseURL, `{"features":[1]}`)
		return resp.Header.Get("X-Served-By") == "a"
	})
	checkRouteMatchesMembers(t, r, "after catch-up")
}

// TestReloadPublishesGenerationWithRoute: a commit wave publishes the
// members' new generation, the fleet's, and the route set in one step.
// The second commit is held open: until it returns, no member may be
// recorded at the new generation while the route set still describes
// the old one.
func TestReloadPublishesGenerationWithRoute(t *testing.T) {
	r, ctlAddr, _ := newTestRouter(t, testRouterConfig())
	a := newFakeReplica(t, "a", 1, 100)
	b := newFakeReplica(t, "b", 1, 100)
	mustRegister(t, ctlAddr, a)
	mustRegister(t, ctlAddr, b)

	var commits atomic.Int32
	entered, release := heldCall(t)
	block := func(path string) {
		if path == "/reload/commit" && commits.Add(1) == 2 {
			close(entered)
			<-release
		}
	}
	for _, f := range []*fakeReplica{a, b} {
		f.set(func(f *fakeReplica) { f.latestE, f.latestS, f.block = 2, 200, block })
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := r.Reload()
		done <- err
	}()
	<-entered
	checkRouteMatchesMembers(t, r, "between the two commits")
	releaseHeld(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkRouteMatchesMembers(t, r, "after the reload")
	if rs := r.route.Load(); len(rs.members) != 2 {
		t.Fatalf("route set has %d members after the reload, want 2", len(rs.members))
	}
}
