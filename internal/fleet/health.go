package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Health probing and drain-around. The router trusts nothing it
// cannot observe: every HealthEvery it probes each member's /healthz,
// and DeadAfter consecutive failures drain the member from the route
// set — in-flight requests fail over, new ones never see it. A
// replica that answers again is readmitted, but only once its
// generation matches the fleet's (a restarted replica may come back
// on older weights; catchUp walks it forward through the same
// stage/commit protocol a coordinated reload uses).

// replicaHealth is the slice of a replica's /healthz the router needs.
type replicaHealth struct {
	Status string `json:"status"`
	Epoch  int    `json:"epoch"`
	Step   int    `json:"step"`
	Pid    int    `json:"pid"`
}

// decodeHealth parses a replica /healthz body. Lenient about fields
// it does not use (the replica reports plenty), strict about the ones
// it does, and total: no input panics it.
func decodeHealth(body []byte) (replicaHealth, error) {
	var h replicaHealth
	if err := json.Unmarshal(body, &h); err != nil {
		return h, fmt.Errorf("fleet: decoding healthz: %w", err)
	}
	if h.Status == "" {
		return h, errors.New("fleet: healthz missing status")
	}
	if h.Epoch < 0 || h.Step < 0 {
		return h, errors.New("fleet: healthz generation must be non-negative")
	}
	return h, nil
}

func (r *Router) healthLoop() {
	defer r.loopWG.Done()
	tick := time.NewTicker(r.cfg.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.stopc:
			return
		case <-tick.C:
			r.probeAll()
		}
	}
}

// probeAll probes every member once.
func (r *Router) probeAll() {
	r.mu.Lock()
	members := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		members = append(members, m)
	}
	r.mu.Unlock()

	for _, m := range members {
		r.probe(m)
	}
}

// probe checks one member and publishes what it learned — health and
// generation together with the route set, under r.mu — before it
// makes any further call. A healthy member behind the fleet generation
// is then walked forward (catchUp) while it is out of the route set.
func (r *Router) probe(m *member) {
	fleetGen := r.fleetGen.Load()
	h, err := r.fetchHealth(m)
	r.mu.Lock()
	healthy, gen := m.healthy, m.gen
	switch {
	case err != nil:
		if int(m.fails.Add(1)) >= r.cfg.DeadAfter {
			healthy = false
		}
	case h.Status == "draining":
		// The replica is shutting down on purpose: treat it like a
		// death, without waiting for the port to go dark.
		m.fails.Store(0)
		healthy = false
	default:
		m.fails.Store(0)
		if h.Pid != 0 {
			m.pid.Store(int64(h.Pid))
		}
		healthy = true
		// A reading taken before a reload commit was published may
		// predate the commit; the next probe reads the replica again.
		if r.fleetGen.Load() == fleetGen {
			gen = packGen(h.Epoch, h.Step)
		}
	}
	switch {
	case m.healthy && !healthy:
		r.metrics.drains.Add(1)
	case !m.healthy && healthy:
		r.metrics.recoveries.Add(1)
	}
	if healthy != m.healthy || gen != m.gen {
		m.healthy, m.gen = healthy, gen
		r.rebuildRouteLocked()
	}
	r.mu.Unlock()
	// A healthy member behind the fleet generation is useless for
	// routing; try to walk it forward right here (shared checkpoint
	// storage makes this a local stage/commit, no fleet-wide pause
	// needed — the member is not route-eligible yet).
	if healthy && gen < fleetGen {
		r.catchUp(m, fleetGen)
	}
}

func (r *Router) fetchHealth(m *member) (replicaHealth, error) {
	ctx, cancel := contextWithTimeout(r.stopc, r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url("/healthz"), nil)
	if err != nil {
		return replicaHealth{}, err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return replicaHealth{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return replicaHealth{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return replicaHealth{}, fmt.Errorf("fleet: healthz status %d", resp.StatusCode)
	}
	return decodeHealth(body)
}

// catchUp stages the newest checkpoint on one stale member and
// commits it iff it is exactly the fleet generation, then publishes
// the member's new generation unless a reload moved the fleet on
// meanwhile.
func (r *Router) catchUp(m *member, fleetGen int64) {
	epoch, step, err := r.stageOn(m)
	if err != nil {
		return
	}
	if packGen(epoch, step) != fleetGen {
		_ = r.abortOn(m) // its storage cannot produce the fleet's generation
		return
	}
	if err := r.commitOn(m, epoch, step); err != nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fleetGen.Load() == fleetGen {
		m.gen = fleetGen
		r.rebuildRouteLocked()
	}
}
