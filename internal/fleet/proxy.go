package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// The router's HTTP face: the /predict proxy with failover, the
// fleet-wide /healthz and /metrics, and the /fleet/reload admin
// trigger. The proxy path holds Router.pause for read end to end —
// including failover retries — which is the client half of the
// atomic-reload guarantee.

// maxProxyBody bounds a proxied request (and any replica reply the
// router reads); same budget as the replica's own limit.
const maxProxyBody = 4 << 20

// routeError is the router's typed 4xx/5xx (mirrors the replica's
// apiError wire shape so clients parse one schema).
type routeError struct {
	Status int    `json:"-"`
	Code   string `json:"code"`
	Msg    string `json:"error"`
}

// Handler returns the router's HTTP handler:
//
//	POST /predict       body forwarded unparsed to the less loaded of
//	                    two sampled replicas
//	GET  /healthz       fleet generation + per-replica state
//	GET  /metrics       router counters and latency histogram
//	POST /fleet/reload  run one coordinated reload round now
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", r.handlePredict)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/fleet/reload", r.handleReload)
	return mux
}

func (r *Router) handlePredict(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeRouteErr(w, &routeError{Status: http.StatusMethodNotAllowed,
			Code: "method_not_allowed", Msg: "use POST"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(nil, req.Body, maxProxyBody))
	req.Body.Close()
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeRouteErr(w, &routeError{Status: http.StatusRequestEntityTooLarge,
				Code: "body_too_large", Msg: "request body exceeds limit"})
			return
		}
		writeRouteErr(w, &routeError{Status: http.StatusBadRequest,
			Code: "bad_body", Msg: err.Error()})
		return
	}

	start := time.Now()
	r.metrics.requests.Add(1)

	// The read half of the pause gate: held across every attempt so a
	// commit wave can never interleave with this request's failovers.
	r.pause.RLock()
	defer r.pause.RUnlock()

	tried := make(map[*member]bool, maxAttempts)
	sawMember := false
	for attempt := 0; attempt < maxAttempts; attempt++ {
		m := r.route.Load().pick2(tried)
		if m == nil {
			break
		}
		sawMember = true
		tried[m] = true
		if attempt > 0 {
			r.metrics.failovers.Add(1)
		}
		resp, ferr := r.forward(m, req, body)
		if ferr != nil {
			// Transport-level failure: inference is idempotent, retry
			// on another replica. The health prober will catch up with
			// this one.
			m.failures.Add(1)
			r.metrics.attemptErrors.Add(1)
			continue
		}
		if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
			// The replica is itself giving up or draining; treat like
			// a transport failure and go elsewhere.
			resp.Body.Close()
			m.failures.Add(1)
			r.metrics.attemptErrors.Add(1)
			continue
		}
		// Everything else — success or a judgment (4xx, 429) the
		// replica is entitled to make — passes through.
		relayResponse(w, resp, m.id)
		m.proxied.Add(1)
		r.metrics.proxied.Add(1)
		r.metrics.latency.Observe(time.Since(start).Seconds())
		return
	}

	if !sawMember {
		w.Header().Set("Retry-After", "1")
		writeRouteErr(w, &routeError{Status: http.StatusServiceUnavailable,
			Code: "no_replicas", Msg: "no route-eligible replica (fleet empty, draining, or mid-recovery)"})
		r.metrics.noReplica.Add(1)
		return
	}
	writeRouteErr(w, &routeError{Status: http.StatusBadGateway,
		Code: "replicas_exhausted",
		Msg:  fmt.Sprintf("request failed on %d replica(s)", len(tried))})
	r.metrics.exhausted.Add(1)
}

// forward relays one attempt to one member.
func (r *Router) forward(m *member, orig *http.Request, body []byte) (*http.Response, error) {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	req, err := http.NewRequestWithContext(orig.Context(), http.MethodPost,
		m.url("/predict"), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return r.client.Do(req)
}

// relayResponse copies a replica reply to the client, stamping which
// replica served it.
func relayResponse(w http.ResponseWriter, resp *http.Response, memberID string) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Served-By", memberID)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, io.LimitReader(resp.Body, maxProxyBody))
}

// fleetHealth is the wire shape of the router's /healthz.
type fleetHealth struct {
	// Status is "ok"; "degraded" when a replica is drained, stale, or
	// the last reload round was held back; "no_replicas" when nothing
	// is route-eligible.
	Status          string         `json:"status"`
	Epoch           int            `json:"epoch"`
	Step            int            `json:"step"`
	Replicas        int            `json:"replicas"`
	Eligible        int            `json:"eligible"`
	Reloads         int            `json:"reloads"`
	LastReloadError string         `json:"last_reload_error,omitempty"`
	Members         []MemberStatus `json:"members"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	members := r.Members()
	eligible := len(r.route.Load().members)
	epoch, step := r.Generation()
	r.rmu.Lock()
	reloads, lastErr := r.reloads, r.lastReloadErr
	r.rmu.Unlock()
	h := fleetHealth{
		Status: "ok", Epoch: epoch, Step: step,
		Replicas: len(members), Eligible: eligible,
		Reloads: reloads, LastReloadError: lastErr,
		Members: members,
	}
	if eligible < len(members) || lastErr != "" {
		h.Status = "degraded"
	}
	if eligible == 0 {
		h.Status = "no_replicas"
	}
	writeJSON(w, http.StatusOK, h)
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.metrics.snapshot())
}

func (r *Router) handleReload(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeRouteErr(w, &routeError{Status: http.StatusMethodNotAllowed,
			Code: "method_not_allowed", Msg: "use POST"})
		return
	}
	epoch, step, err := r.Reload()
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]any{"epoch": epoch, "step": step, "reloaded": true})
	case errors.Is(err, ErrNothingToReload):
		writeJSON(w, http.StatusOK, map[string]any{"epoch": epoch, "step": step, "reloaded": false})
	case errors.Is(err, ErrReloadHeldBack):
		writeRouteErr(w, &routeError{Status: http.StatusConflict,
			Code: "held_back", Msg: err.Error()})
	default:
		writeRouteErr(w, &routeError{Status: http.StatusInternalServerError,
			Code: "reload_failed", Msg: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeRouteErr(w http.ResponseWriter, e *routeError) {
	writeJSON(w, e.Status, e)
}

// Serve answers HTTP on ln until Shutdown; the blocking entry point
// `candle fleet` uses. Unlike serve.Server, the router needs no
// drain choreography — proxied requests hold nothing but the pause
// read lock.
func (r *Router) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: r.Handler()}
	r.httpMu.Lock()
	r.httpLn, r.httpSrv = ln, srv
	r.httpMu.Unlock()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}
