// Package fleet replicates the serving tier: a stateless HTTP router
// in front of N candle serve replica processes. It is the serving
// analogue of the paper's multi-node scaling study — where training
// scales by adding Horovod ranks behind a rendezvous, serving scales
// by adding replicas behind a router — and it borrows the same
// control-plane machinery: replicas register over the JSON-lines
// protocol internal/launch established, with the same typed join
// errors and generation stamps.
//
// The router owns three loops:
//
//   - Balancing. A request goes to the less loaded of two randomly
//     chosen healthy replicas (power-of-two-choices, which tracks
//     least-loaded within a constant factor at a fraction of the
//     bookkeeping). The router forwards the body unparsed; the
//     replica's decoder is the one that validates it.
//
//   - Health. Every HealthEvery the router probes each replica's
//     /healthz; deadAfter consecutive failures drain the replica out
//     of the route set (in-flight failovers retry elsewhere), and a
//     recovered replica is routed around until its generation catches
//     back up to the fleet's.
//
//   - Reload. Checkpoint hot-reload is coordinated, not autonomous:
//     the router peeks every replica's newest loadable generation,
//     stages the fleet-wide minimum everywhere (two-phase), and
//     commits the bump inside one pause window, so no client
//     connection ever observes two generations at once or a
//     generation moving backwards. One replica with a corrupt newest
//     checkpoint holds the whole fleet back — visibly, on the
//     router's /healthz — rather than splitting the fleet across
//     generations.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"candle/internal/launch"
)

// Config describes one router.
type Config struct {
	// HealthEvery is the per-replica health probe cadence
	// (default 200ms).
	HealthEvery time.Duration
	// ReloadEvery is the coordinated-reload poll cadence (default 2s;
	// negative disables the loop — reloads then happen only via the
	// POST /fleet/reload admin endpoint).
	ReloadEvery time.Duration
	// ProbeTimeout bounds one health probe or control call
	// (default 2s).
	ProbeTimeout time.Duration
}

func (c *Config) applyDefaults() {
	if c.HealthEvery <= 0 {
		c.HealthEvery = 200 * time.Millisecond
	}
	if c.ReloadEvery == 0 {
		c.ReloadEvery = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
}

const (
	// deadAfter is how many consecutive failed probes drain a replica.
	deadAfter = 2
	// maxAttempts bounds how many distinct replicas one request may
	// try before the router gives up with 502.
	maxAttempts = 3
)

// gen packs a checkpoint generation (epoch, step) into one int64 so
// members and the fleet can publish theirs atomically. Step is
// truncated to 32 bits, which outlives any plausible training run.
func packGen(epoch, step int) int64 { return int64(epoch)<<32 | int64(uint32(step)) }

func unpackGen(g int64) (epoch, step int) { return int(g >> 32), int(uint32(g)) }

// member is one registered replica. Its health and generation decide
// whether it is route-eligible, so they are guarded by Router.mu and
// change only together with the route set; the proxy path never reads
// them, only the route set.
type member struct {
	id   string
	addr string // host:port of the replica's HTTP listener
	// pid is the replica's process id (0 if not reported); atomic
	// because the health prober refreshes it while /healthz reads it.
	pid atomic.Int64

	healthy bool  // guarded by Router.mu
	gen     int64 // packed generation the replica last reported; Router.mu

	inflight atomic.Int64 // proxied requests currently outstanding
	fails    atomic.Int32 // consecutive failed probes
	proxied  atomic.Uint64
	failures atomic.Uint64 // proxy attempts that errored on this member
}

func (m *member) url(path string) string { return "http://" + m.addr + path }

// Router fronts the fleet.
type Router struct {
	cfg     Config
	metrics *Metrics
	// client issues proxied and control requests: keep-alive, with
	// enough idle connections per replica for the proxy's fan-in.
	client *http.Client

	// mu guards membership and every input of route eligibility (a
	// member's health and generation, the fleet generation). Whoever
	// changes one rebuilds the route set before releasing mu, so
	// Members() never reports a state the route set does not yet
	// reflect.
	mu      sync.Mutex
	members map[string]*member

	// fleetGen is the packed generation every route-eligible replica
	// serves; 0 means "no replica has joined yet". Written under mu,
	// read lock-free.
	fleetGen atomic.Int64

	// route is the immutable routing view (healthy, generation-matching
	// members), rebuilt under mu on any
	// membership, health, or generation change.
	route atomic.Pointer[routeSet]

	// pause gates proxied requests around a commit wave: the proxy
	// path holds it for read across a whole request (failovers
	// included), the reload coordinator holds it for write while
	// committing every replica. That exclusion is what makes the
	// fleet-wide generation bump atomic from any client's view.
	pause sync.RWMutex

	// reload state surfaced on the router's /healthz.
	rmu           sync.Mutex
	lastReloadErr string
	reloads       int

	ctlMu   sync.Mutex
	ctlLn   net.Listener
	ctl     launch.Listener[controlMsg]
	httpMu  sync.Mutex
	httpLn  net.Listener
	httpSrv *http.Server

	stopc    chan struct{}
	loopWG   sync.WaitGroup
	stopOnce sync.Once
}

// NewRouter builds a router with no members; replicas arrive through
// the control plane (ServeControl / Register).
func NewRouter(cfg Config) *Router {
	cfg.applyDefaults()
	r := &Router{
		cfg:     cfg,
		metrics: newMetrics(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     30 * time.Second,
		}},
		members: make(map[string]*member),
		stopc:   make(chan struct{}),
	}
	r.ctl = launch.Listener[controlMsg]{Decode: decodeJoin, Handle: r.answerJoin, ReadTimeout: cfg.ProbeTimeout}
	r.route.Store(&routeSet{})
	r.loopWG.Add(1)
	go r.healthLoop()
	if cfg.ReloadEvery > 0 {
		r.loopWG.Add(1)
		go r.reloadLoop()
	}
	return r
}

// register adds (or, for a dead predecessor, replaces) a member. It
// is the control plane's entry point; the typed errors cross the wire
// via launch.ErrCode.
func (r *Router) register(id, addr string, pid, epoch, step int) (*member, error) {
	if id == "" || addr == "" {
		return nil, errors.New("fleet: join needs id and addr")
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return nil, fmt.Errorf("fleet: join addr %q: %w", addr, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.members[id]; ok {
		// A live replica re-registering under the same id is an
		// imposter (or a split brain); a dead one is a restart, and the
		// replacement inherits the slot.
		if old.healthy {
			return nil, fmt.Errorf("fleet: replica %q already registered: %w",
				id, ErrDuplicateReplica)
		}
		delete(r.members, id)
	}
	m := &member{id: id, addr: addr, healthy: true, gen: packGen(epoch, step)}
	m.pid.Store(int64(pid))
	r.members[id] = m
	// The first replica's generation seeds the fleet's.
	if r.fleetGen.Load() == 0 {
		r.fleetGen.Store(packGen(epoch, step))
	}
	r.rebuildRouteLocked()
	return m, nil
}

// Members snapshots the membership for /healthz and tests.
func (r *Router) Members() []MemberStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MemberStatus, 0, len(r.members))
	for _, m := range r.members {
		e, s := unpackGen(m.gen)
		out = append(out, MemberStatus{
			ID: m.id, Addr: m.addr, Pid: int(m.pid.Load()),
			Healthy: m.healthy, Epoch: e, Step: s,
			Inflight: int(m.inflight.Load()),
			Proxied:  m.proxied.Load(), Failures: m.failures.Load(),
		})
	}
	return out
}

// MemberStatus is one replica's state as the router sees it.
type MemberStatus struct {
	ID       string `json:"id"`
	Addr     string `json:"addr"`
	Pid      int    `json:"pid,omitempty"`
	Healthy  bool   `json:"healthy"`
	Epoch    int    `json:"epoch"`
	Step     int    `json:"step"`
	Inflight int    `json:"inflight"`
	Proxied  uint64 `json:"proxied"`
	Failures uint64 `json:"failures"`
}

// Generation returns the fleet-wide serving generation.
func (r *Router) Generation() (epoch, step int) { return unpackGen(r.fleetGen.Load()) }

// Metrics exposes the router's registry.
func (r *Router) Metrics() *Metrics { return r.metrics }

// rebuildRouteLocked recomputes the immutable route set: healthy
// members whose generation matches the fleet's. Callers hold r.mu.
func (r *Router) rebuildRouteLocked() {
	fleetGen := r.fleetGen.Load()
	eligible := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		if m.healthy && m.gen == fleetGen {
			eligible = append(eligible, m)
		}
	}
	r.route.Store(&routeSet{members: eligible})
}

// Shutdown stops the loops and listeners. Proxied requests in flight
// finish (they hold the pause read lock, not resources Shutdown
// tears down); replicas are not contacted — they outlive the router.
func (r *Router) Shutdown(ctx context.Context) error {
	var err error
	r.stopOnce.Do(func() {
		close(r.stopc)
		r.ctlMu.Lock()
		if r.ctlLn != nil {
			r.ctlLn.Close()
		}
		r.ctlMu.Unlock()
		r.httpMu.Lock()
		ln, srv := r.httpLn, r.httpSrv
		r.httpMu.Unlock()
		switch {
		case srv != nil:
			// Graceful: in-flight proxied requests finish, keep-alive
			// connections close, the listener with them.
			if serr := srv.Shutdown(ctx); serr != nil {
				err = serr
			}
		case ln != nil:
			ln.Close()
		}
		done := make(chan struct{})
		go func() {
			r.loopWG.Wait()
			r.ctl.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	})
	return err
}
