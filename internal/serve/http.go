package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
)

// The HTTP skin over the serving engine: thin codecs around
// Server.Predict plus the two observability endpoints. All state
// lives in the engine; handlers hold none.

// maxBodyBytes bounds a /predict body; a full-scale NT3 row (60,483
// float64 features as JSON text) fits comfortably.
const maxBodyBytes = 4 << 20

// Handler returns the server's HTTP handler:
//
//	POST /predict        {"features": [...]} -> {"prediction": [...], ...}
//	GET  /healthz        serving generation + reload health
//	GET  /metrics        counters, histograms, phase totals
//	GET  /ckpt/latest    newest loadable checkpoint generation on disk
//	POST /reload/stage   build + park the newest generation (2PC prepare)
//	POST /reload/commit  {"epoch": E, "step": S} swap in the staged set
//	POST /reload/abort   drop the staged set
//
// The /ckpt and /reload endpoints are the replica's half of the
// fleet coordinator's two-phase reload protocol (see reload.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/ckpt/latest", s.handleCkptLatest)
	mux.HandleFunc("/reload/stage", s.handleReloadStage)
	mux.HandleFunc("/reload/commit", s.handleReloadCommit)
	mux.HandleFunc("/reload/abort", s.handleReloadAbort)
	return mux
}

// predictResponse is the wire shape of a successful /predict.
type predictResponse struct {
	Prediction []float64 `json:"prediction"`
	// BatchSize is how many requests shared this forward pass.
	BatchSize int `json:"batch_size"`
	// QueueSeconds is the time the request waited for its batch.
	QueueSeconds float64 `json:"queue_seconds"`
	// Epoch is the checkpoint generation that served the request.
	Epoch int `json:"epoch"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, &apiError{Status: http.StatusMethodNotAllowed,
			Code: "method_not_allowed", Msg: "use POST"})
		return
	}
	body, err := readBody(r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeErr(w, &apiError{Status: http.StatusRequestEntityTooLarge,
				Code: "body_too_large", Msg: "request body exceeds limit"})
			return
		}
		s.writeErr(w, badRequest("bad_body", "reading request body: %v", err))
		return
	}
	features, aerr := decodePredict(body, s.cfg.InputDim)
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	pred, info, err := s.Predict(features)
	if err != nil {
		s.writeErr(w, mapPredictErr(err))
		return
	}
	epoch, _ := s.Generation()
	writeJSON(w, http.StatusOK, predictResponse{
		Prediction:   pred,
		BatchSize:    info.BatchSize,
		QueueSeconds: info.QueueWait.Seconds(),
		Epoch:        epoch,
	})
}

func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
}

// mapPredictErr turns engine errors into HTTP-coded apiErrors.
func mapPredictErr(err error) *apiError {
	var aerr *apiError
	switch {
	case errors.As(err, &aerr):
		return aerr
	case errors.Is(err, ErrOverloaded):
		return &apiError{Status: http.StatusTooManyRequests,
			Code: "overloaded", Msg: err.Error()}
	case errors.Is(err, ErrDraining):
		return &apiError{Status: http.StatusServiceUnavailable,
			Code: "draining", Msg: err.Error()}
	case errors.Is(err, ErrBadWidth):
		return &apiError{Status: http.StatusUnprocessableEntity,
			Code: "feature_count", Msg: err.Error()}
	default:
		return &apiError{Status: http.StatusInternalServerError,
			Code: "internal", Msg: err.Error()}
	}
}

// healthzResponse is the wire shape of /healthz.
type healthzResponse struct {
	// Status is "ok", or "degraded" when the last reload attempt hit
	// trouble (the server still serves its previous good weights).
	Status          string  `json:"status"`
	Benchmark       string  `json:"benchmark"`
	DType           string  `json:"dtype"`
	Epoch           int     `json:"epoch"`
	Step            int     `json:"step"`
	Replicas        int     `json:"replicas"`
	MaxBatch        int     `json:"max_batch"`
	MaxWaitSeconds  float64 `json:"max_wait_seconds"`
	Pid             int     `json:"pid"`
	QueueDepth      int     `json:"queue_depth"`
	Reloads         int     `json:"reloads"`
	ReloadFailures  int     `json:"reload_failures"`
	LastReloadError string  `json:"last_reload_error,omitempty"`
	Draining        bool    `json:"draining,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.health.mu.Lock()
	resp := healthzResponse{
		Status:          "ok",
		Benchmark:       s.cfg.Benchmark,
		DType:           s.rs.Load().dtype.String(),
		Epoch:           s.health.epoch,
		Step:            s.health.step,
		Replicas:        s.cfg.Replicas,
		MaxBatch:        s.cfg.MaxBatch,
		MaxWaitSeconds:  s.cfg.MaxWait.Seconds(),
		Pid:             os.Getpid(),
		QueueDepth:      len(s.queue),
		Reloads:         s.health.reloads,
		ReloadFailures:  s.health.reloadFailures,
		LastReloadError: s.health.lastReloadErr,
	}
	s.health.mu.Unlock()
	if resp.LastReloadError != "" {
		resp.Status = "degraded"
	}
	if s.draining.Load() {
		resp.Status = "draining"
		resp.Draining = true
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsSnapshot())
}

// ---- fleet reload control plane -------------------------------------

// generationJSON is the wire shape shared by /ckpt/latest, the stage
// response, and the commit request body.
type generationJSON struct {
	Epoch int `json:"epoch"`
	Step  int `json:"step"`
	// Skipped counts newer damaged checkpoint files routed around to
	// reach this generation (only /ckpt/latest sets it).
	Skipped int `json:"skipped,omitempty"`
}

func (s *Server) handleCkptLatest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, &apiError{Status: http.StatusMethodNotAllowed,
			Code: "method_not_allowed", Msg: "use GET"})
		return
	}
	epoch, step, skipped, err := s.PeekLatest()
	if err != nil {
		s.writeErr(w, &apiError{Status: http.StatusServiceUnavailable,
			Code: "no_checkpoint", Msg: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, generationJSON{Epoch: epoch, Step: step, Skipped: skipped})
}

func (s *Server) handleReloadStage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, &apiError{Status: http.StatusMethodNotAllowed,
			Code: "method_not_allowed", Msg: "use POST"})
		return
	}
	epoch, step, err := s.StageReload()
	if err != nil {
		s.writeErr(w, &apiError{Status: http.StatusInternalServerError,
			Code: "stage_failed", Msg: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, generationJSON{Epoch: epoch, Step: step})
}

func (s *Server) handleReloadCommit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, &apiError{Status: http.StatusMethodNotAllowed,
			Code: "method_not_allowed", Msg: "use POST"})
		return
	}
	body, err := readBody(r)
	if err != nil {
		s.writeErr(w, badRequest("bad_body", "reading request body: %v", err))
		return
	}
	gen, aerr := decodeGeneration(body)
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	if err := s.CommitStaged(gen.Epoch, gen.Step); err != nil {
		status, code := http.StatusInternalServerError, "commit_failed"
		if errors.Is(err, ErrNoStaged) || errors.Is(err, ErrStageMismatch) {
			status, code = http.StatusConflict, "stage_conflict"
		}
		s.writeErr(w, &apiError{Status: status, Code: code, Msg: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, generationJSON{Epoch: gen.Epoch, Step: gen.Step})
}

func (s *Server) handleReloadAbort(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, &apiError{Status: http.StatusMethodNotAllowed,
			Code: "method_not_allowed", Msg: "use POST"})
		return
	}
	s.AbortStaged()
	w.WriteHeader(http.StatusNoContent)
}

// decodeGeneration parses a commit body with the same strictness (and
// the same no-panic guarantee) as decodePredict.
func decodeGeneration(body []byte) (generationJSON, *apiError) {
	var gen generationJSON
	if len(bytes.TrimSpace(body)) == 0 {
		return gen, badRequest("empty_body", "request body is empty; send {\"epoch\": E, \"step\": S}")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&gen); err != nil {
		return gen, badRequest("bad_json", "decoding request: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return gen, badRequest("bad_json", "trailing data after JSON object")
	}
	return gen, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr writes a typed error, attaching live Retry-After advice to
// backpressure statuses: the seconds the current backlog needs to
// drain at the measured rate, not a fixed constant.
func (s *Server) writeErr(w http.ResponseWriter, e *apiError) {
	if e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
	}
	writeJSON(w, e.Status, e)
}

// Serve answers HTTP on the listener until Shutdown (or a listener
// error). It is the blocking entry point `candle serve` uses. A
// Shutdown that ran before Serve registered its http.Server found
// nothing to stop, so Serve checks for it and closes the listener
// itself instead of serving a drained engine forever.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	s.httpMu.Lock()
	s.httpSrv = srv
	draining := s.draining.Load()
	s.httpMu.Unlock()
	if draining {
		return ln.Close()
	}
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}
