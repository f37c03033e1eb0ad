package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Coordinated (two-phase) checkpoint reload. Autonomous per-replica
// reloads would split a fleet across generations whenever replicas
// notice a new checkpoint at different times; the coordinator makes
// the bump atomic instead:
//
//  1. Peek every healthy replica's newest loadable generation
//     (GET /ckpt/latest). The target is the MINIMUM across replicas:
//     a replica whose newest file is damaged (corrupt-skip reports a
//     lower generation) holds the whole fleet back, surfacing on the
//     router's /healthz, rather than leaving that replica behind.
//  2. Stage the target on every replica (POST /reload/stage — builds
//     the model off the serving path). Any replica staging a
//     different generation than the target aborts the round
//     everywhere; nothing was committed, nothing changed.
//  3. Commit everywhere inside the router's pause window: the write
//     half of Router.pause excludes proxied requests for the few
//     milliseconds the commit wave takes, so no client request can
//     land on a mixed-generation fleet. A replica that fails its
//     commit is drained (generation mismatch keeps it out of the
//     route set) instead of poisoning the guarantee.
//
// The protocol's replica half is internal/serve's
// PeekLatest/StageReload/CommitStaged/AbortStaged.

// ErrNothingToReload reports a reload round that found no generation
// newer than the fleet's.
var ErrNothingToReload = errors.New("fleet: no newer checkpoint generation")

// ErrReloadHeldBack reports a round aborted because the replicas
// could not agree on the target generation — typically one replica's
// newest checkpoint is damaged.
var ErrReloadHeldBack = errors.New("fleet: reload held back")

func (r *Router) reloadLoop() {
	defer r.loopWG.Done()
	tick := time.NewTicker(r.cfg.ReloadEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.stopc:
			return
		case <-tick.C:
			if _, _, err := r.Reload(); err != nil && !errors.Is(err, ErrNothingToReload) {
				r.noteReloadErr(err)
			}
		}
	}
}

func (r *Router) noteReloadErr(err error) {
	r.rmu.Lock()
	r.lastReloadErr = err.Error()
	r.rmu.Unlock()
	r.metrics.reloadFailures.Add(1)
}

// Reload runs one coordinated round and returns the fleet generation
// it ended on. ErrNothingToReload means the fleet was already
// current; ErrReloadHeldBack (wrapped with detail) means a replica
// kept the fleet on the old generation — both leave every replica
// serving exactly what it served before.
func (r *Router) Reload() (epoch, step int, err error) {
	r.mu.Lock()
	members := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		if m.healthy {
			members = append(members, m)
		}
	}
	r.mu.Unlock()
	curE, curS := unpackGen(r.fleetGen.Load())
	if len(members) == 0 {
		return curE, curS, errors.New("fleet: no healthy replicas to reload")
	}

	// Phase 0: peek. The fleet can only advance to a generation every
	// replica can actually load.
	target := int64(-1)
	anySkipped := false
	for _, m := range members {
		e, s, skipped, perr := r.peekOn(m)
		if perr != nil {
			return curE, curS, fmt.Errorf("%w: peeking %s: %v", ErrReloadHeldBack, m.id, perr)
		}
		if skipped > 0 {
			anySkipped = true
		}
		if g := packGen(e, s); target == -1 || g < target {
			target = g
		}
	}
	if target <= r.fleetGen.Load() {
		if anySkipped {
			// Newer files exist somewhere but at least one replica
			// cannot load its copy: the fleet is deliberately held
			// back, and /healthz should say so.
			err := fmt.Errorf("%w: a replica's newest checkpoint is damaged; fleet stays at epoch %d", ErrReloadHeldBack, curE)
			r.noteReloadErr(err)
			return curE, curS, err
		}
		// Every replica peeked clean and nobody skipped anything: the
		// fleet is simply current. A stale held-back error from an
		// earlier round (say, the damaged file has since been deleted)
		// no longer describes reality — clear it so /healthz recovers.
		r.rmu.Lock()
		r.lastReloadErr = ""
		r.rmu.Unlock()
		return curE, curS, ErrNothingToReload
	}
	tE, tS := unpackGen(target)

	// Phase 1: stage everywhere; verify every replica staged exactly
	// the target.
	staged := members[:0:0]
	abort := func() {
		for _, m := range staged {
			_ = r.abortOn(m)
		}
	}
	for _, m := range members {
		e, s, serr := r.stageOn(m)
		if serr != nil {
			abort()
			err := fmt.Errorf("%w: staging on %s: %v", ErrReloadHeldBack, m.id, serr)
			r.noteReloadErr(err)
			return curE, curS, err
		}
		staged = append(staged, m)
		if packGen(e, s) != target {
			abort()
			err := fmt.Errorf("%w: %s staged epoch %d/step %d, fleet target is %d/%d",
				ErrReloadHeldBack, m.id, e, s, tE, tS)
			r.noteReloadErr(err)
			return curE, curS, err
		}
	}

	// Phase 2: commit, atomically from any client's view. The pause
	// write lock waits out in-flight proxied requests and blocks new
	// ones for the duration of the wave; the new generations, the fleet
	// generation and the route set built from them are published
	// together, under r.mu, before the pause lifts.
	r.pause.Lock()
	committed := make([]*member, 0, len(members))
	for _, m := range members {
		if cerr := r.commitOn(m, tE, tS); cerr != nil {
			// This replica still serves the old generation; leave its
			// recorded generation stale so the route rebuild below
			// drains it. The fleet moves on without it.
			m.failures.Add(1)
			continue
		}
		committed = append(committed, m)
	}
	if len(committed) > 0 {
		r.mu.Lock()
		for _, m := range committed {
			m.gen = target
		}
		r.fleetGen.Store(target)
		r.rebuildRouteLocked()
		r.mu.Unlock()
	}
	r.pause.Unlock()

	if len(committed) == 0 {
		err := fmt.Errorf("%w: every commit failed; fleet stays at epoch %d", ErrReloadHeldBack, curE)
		r.noteReloadErr(err)
		return curE, curS, err
	}
	r.rmu.Lock()
	r.reloads++
	r.lastReloadErr = ""
	r.rmu.Unlock()
	r.metrics.reloads.Add(1)
	return tE, tS, nil
}

// ---- per-replica control calls --------------------------------------

func (r *Router) controlJSON(m *member, method, path string, body []byte, out any) error {
	ctx, cancel := contextWithTimeout(r.stopc, r.cfg.ProbeTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("fleet: %s %s on %s: status %d: %s",
			method, path, m.id, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("fleet: %s %s on %s: %w", method, path, m.id, err)
		}
	}
	return nil
}

type genReply struct {
	Epoch   int `json:"epoch"`
	Step    int `json:"step"`
	Skipped int `json:"skipped"`
}

func (r *Router) peekOn(m *member) (epoch, step, skipped int, err error) {
	var g genReply
	if err := r.controlJSON(m, http.MethodGet, "/ckpt/latest", nil, &g); err != nil {
		return 0, 0, 0, err
	}
	return g.Epoch, g.Step, g.Skipped, nil
}

func (r *Router) stageOn(m *member) (epoch, step int, err error) {
	var g genReply
	if err := r.controlJSON(m, http.MethodPost, "/reload/stage", nil, &g); err != nil {
		return 0, 0, err
	}
	return g.Epoch, g.Step, nil
}

func (r *Router) commitOn(m *member, epoch, step int) error {
	body, _ := json.Marshal(map[string]int{"epoch": epoch, "step": step})
	return r.controlJSON(m, http.MethodPost, "/reload/commit", body, nil)
}

func (r *Router) abortOn(m *member) error {
	return r.controlJSON(m, http.MethodPost, "/reload/abort", nil, nil)
}

// contextWithTimeout is context.WithTimeout that is also canceled by
// the router's stop channel, so shutdown never waits out a probe.
func contextWithTimeout(stopc <-chan struct{}, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	go func() {
		select {
		case <-stopc:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}
