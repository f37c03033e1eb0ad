// Package serve turns a trained CANDLE benchmark into an HTTP
// inference service: it loads the newest valid checkpoint, rebuilds
// the model, and answers /predict requests.
//
// The design transplants the paper's two throughput lessons from
// training to serving:
//
//   - Batching. Horovod wins by fusing many small tensors into one
//     collective under a size/time threshold (fusion bytes / cycle
//     time). The server's dynamic micro-batcher does the same to
//     requests: concurrent single-row predictions are coalesced into
//     one Sequential.Forward of up to MaxBatch rows, waiting at most
//     MaxWait for stragglers, so per-call overhead is paid once per
//     batch instead of once per row.
//
//   - A clean hot path. The nn layers reuse their forward buffers
//     (zero allocations warm), which makes a single model instance
//     unsafe under concurrency (see nn.Replica). Instead of locking
//     the model — serializing the hot path — the server keeps a pool
//     of independent replicas, each with private buffers, all sharing
//     the globally bounded tensor worker pool so R replicas never
//     oversubscribe the machine.
//
// Checkpoints hot-reload: a background loop polls the checkpoint
// directory and atomically swaps in a fresh replica set when a newer
// valid snapshot appears, reusing checkpoint.Latest's corrupt-skip
// semantics so a half-written or bit-flipped file never reaches the
// serving path (the failure is surfaced on /healthz instead).
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"candle/internal/checkpoint"
	"candle/internal/nn"
	"candle/internal/tensor"
)

// Config describes one serving instance.
type Config struct {
	// Benchmark is the checkpoint identity to serve (e.g. "NT3").
	Benchmark string
	// Dir is the checkpoint directory to load from and watch.
	Dir string
	// Factory returns a fresh, uncompiled model with the architecture
	// the checkpoints were trained on (e.g. candle.Benchmark.Build).
	Factory func() *nn.Sequential
	// Loss is the model's training loss (Compile requires one; it is
	// never evaluated while serving).
	Loss nn.Loss
	// InputDim is the feature width requests must carry.
	InputDim int
	// DType selects the replicas' compute precision: "f32", "f64", or
	// "" to follow whatever precision the loaded checkpoint was trained
	// at. Forcing "f32" on an f64 checkpoint serves demoted weights
	// through the packed float32 kernels (faster, float32-rounded
	// outputs); forcing "f64" promotes an f32 checkpoint.
	DType string

	// MaxBatch caps how many requests one Forward coalesces
	// (default 32). 1 disables batching — the unbatched baseline.
	MaxBatch int
	// MaxWait bounds how long a non-full batch waits for stragglers
	// after its first request arrives. 0 means the default (2ms); a
	// negative value means never wait: take only what is already
	// queued.
	MaxWait time.Duration
	// Replicas is the number of independent model instances serving
	// batches concurrently (default 2).
	Replicas int
	// QueueDepth bounds the admission queue; requests beyond it are
	// rejected with ErrOverloaded / HTTP 429 (default 256).
	QueueDepth int
	// ReloadEvery is the checkpoint poll cadence (default 2s;
	// negative disables the reload loop).
	ReloadEvery time.Duration
}

func (c *Config) applyDefaults() error {
	if c.Benchmark == "" {
		return errors.New("serve: Config.Benchmark is required")
	}
	if c.Dir == "" {
		return errors.New("serve: Config.Dir is required")
	}
	if c.Factory == nil || c.Loss == nil {
		return errors.New("serve: Config.Factory and Config.Loss are required")
	}
	if c.InputDim <= 0 {
		return fmt.Errorf("serve: Config.InputDim must be positive, got %d", c.InputDim)
	}
	if c.DType != "" {
		if _, err := tensor.ParseDType(c.DType); err != nil {
			return fmt.Errorf("serve: Config.DType: %w", err)
		}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait == 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.MaxWait < 0 {
		c.MaxWait = 0
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.ReloadEvery == 0 {
		c.ReloadEvery = 2 * time.Second
	}
	return nil
}

// Typed serving errors; the HTTP layer maps them to status codes.
var (
	// ErrOverloaded: the admission queue is full (HTTP 429).
	ErrOverloaded = errors.New("serve: overloaded, queue full")
	// ErrDraining: the server is shutting down (HTTP 503).
	ErrDraining = errors.New("serve: draining, not accepting requests")
	// ErrBadWidth: the request's feature count does not match the
	// compiled model (HTTP 422).
	ErrBadWidth = errors.New("serve: wrong feature count")
)

// Server is a batched inference server for one benchmark.
type Server struct {
	cfg     Config
	queue   chan *Request
	rs      atomic.Pointer[replicaSet]
	metrics *Metrics

	// completed counts delivered responses; with its timestamped
	// samples in drain it prices Retry-After.
	completed atomic.Uint64
	drain     drainTracker

	// staged holds a replica set built by StageReload and not yet
	// committed — the prepare half of the fleet's two-phase reload.
	stagedMu sync.Mutex
	staged   *replicaSet

	draining atomic.Bool
	inflight sync.WaitGroup // requests between admission and delivery
	batchWG  sync.WaitGroup // dispatched batch goroutines
	loopWG   sync.WaitGroup // batcher + reload loops
	stopc    chan struct{}  // stops the loops after drain
	drainc   chan struct{}  // closed at Shutdown start: flush partial batches now

	health struct {
		mu             sync.Mutex
		epoch, step    int
		reloads        int
		reloadFailures int
		lastReloadErr  string
	}

	httpMu  sync.Mutex
	httpSrv *http.Server

	shutdownOnce sync.Once

	// testHookForward, when set (tests only), runs on the batch
	// goroutine just before the model forward — it lets tests hold a
	// replica busy deterministically.
	testHookForward func()
}

// Request is one prediction moving through the pipeline. Callers of
// Submit allocate it — once — and may resubmit it after each
// completion: the server appends the output into Pred[:0], so a
// steady-state caller allocates nothing per request.
type Request struct {
	// Features is the input row (read-only to the server).
	Features []float64
	// Pred is the model output, filled by the server (storage reused
	// across submissions).
	Pred []float64
	// BatchSize and QueueWait report how the request was served.
	BatchSize int
	QueueWait time.Duration
	// Err is set instead of Pred when the batch failed.
	Err error

	enqueued time.Time
	done     chan *Request
}

// replica is one model instance plus its reusable input buffer.
type replica struct {
	m   *nn.Sequential
	buf []float64 // MaxBatch×InputDim row staging
}

// replicaSet is one immutable generation of the pool: reloads build a
// fresh set and atomically swap the pointer, so in-flight batches
// finish on the weights they started with and new batches pick up the
// new generation without locking.
type replicaSet struct {
	epoch, step int
	dtype       tensor.DType
	free        chan *replica
}

// New builds a Server, loading the newest valid checkpoint for
// cfg.Benchmark from cfg.Dir, and starts the batcher and reload
// loops. It fails if no loadable checkpoint exists — a server with no
// weights cannot answer anything.
func New(cfg Config) (*Server, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *Request, cfg.QueueDepth),
		metrics: newMetrics(),
		stopc:   make(chan struct{}),
		drainc:  make(chan struct{}),
	}
	snap, skips, err := checkpoint.LatestWithSkips(cfg.Dir, cfg.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("serve: loading initial checkpoint: %w", err)
	}
	rs, err := s.buildReplicaSet(snap)
	if err != nil {
		return nil, fmt.Errorf("serve: rebuilding model from %s epoch %d: %w",
			cfg.Benchmark, snap.Epoch, err)
	}
	s.rs.Store(rs)
	s.health.epoch, s.health.step = snap.Epoch, snap.Step
	if len(skips) > 0 {
		s.noteReloadFailure(fmt.Errorf("skipped damaged newer checkpoint: %w", skips[0]))
	}
	s.loopWG.Add(1)
	go s.batchLoop()
	if cfg.ReloadEvery > 0 {
		s.loopWG.Add(1)
		go s.reloadLoop()
	}
	return s, nil
}

// buildReplicaSet compiles a fresh model from a snapshot and
// replicates it cfg.Replicas times, each instance with private layer
// buffers (see nn.Replica for why sharing one is unsafe).
func (s *Server) buildReplicaSet(snap *checkpoint.Snapshot) (*replicaSet, error) {
	if snap.Benchmark != s.cfg.Benchmark {
		return nil, fmt.Errorf("snapshot is for %q, want %q", snap.Benchmark, s.cfg.Benchmark)
	}
	primary := s.cfg.Factory()
	if primary == nil {
		return nil, errors.New("factory returned nil")
	}
	// Precision: an explicit Config.DType wins; otherwise serve at the
	// precision the checkpoint was trained at. nn.Replicate propagates
	// the choice to the other replicas.
	dt := snap.DTypeOrDefault()
	if s.cfg.DType != "" {
		dt, _ = tensor.ParseDType(s.cfg.DType)
	}
	if err := primary.SetDType(dt); err != nil {
		return nil, err
	}
	if err := primary.Compile(s.cfg.InputDim, s.cfg.Loss, nn.NewSGD(0), 1); err != nil {
		return nil, err
	}
	if err := primary.SetWeightsVector(snap.WeightsF64()); err != nil {
		return nil, err
	}
	models := []*nn.Sequential{primary}
	if s.cfg.Replicas > 1 {
		more, err := nn.Replicate(s.cfg.Factory, primary, s.cfg.Replicas-1)
		if err != nil {
			return nil, err
		}
		models = append(models, more...)
	}
	rs := &replicaSet{
		epoch: snap.Epoch,
		step:  snap.Step,
		dtype: dt,
		free:  make(chan *replica, len(models)),
	}
	for _, m := range models {
		rs.free <- &replica{m: m, buf: make([]float64, s.cfg.MaxBatch*s.cfg.InputDim)}
	}
	return rs, nil
}

// PredictInfo reports how a request was served.
type PredictInfo struct {
	// BatchSize is the number of rows in the coalesced Forward that
	// served this request.
	BatchSize int
	// QueueWait is the time from admission to batch execution.
	QueueWait time.Duration
}

// Submit enqueues req without waiting for its result. When the batch
// containing req executes, the server fills req.Pred (or req.Err) and
// delivers req on done. done must have capacity for every request its
// owner keeps in flight — a full done channel stalls the batcher.
// Admission failures (ErrBadWidth, ErrDraining, ErrOverloaded) are
// returned synchronously and nothing is sent on done.
//
// Submit is how a connection multiplexing many concurrent predictions
// avoids one goroutine wake-up per response: a batch's completions
// arrive together, so the consumer wakes once and drains them all.
func (s *Server) Submit(req *Request, done chan *Request) error {
	if len(req.Features) != s.cfg.InputDim {
		return fmt.Errorf("%w: got %d, model wants %d",
			ErrBadWidth, len(req.Features), s.cfg.InputDim)
	}
	s.inflight.Add(1)
	if s.draining.Load() {
		s.inflight.Done()
		return ErrDraining
	}
	req.done, req.enqueued = done, time.Now()
	select {
	case s.queue <- req:
		s.metrics.requests.Add(1)
		return nil
	default:
		s.inflight.Done()
		s.metrics.rejected.Add(1)
		return ErrOverloaded
	}
}

// Predict runs one feature row through the serving pipeline: admission
// control, micro-batching, a replica forward. It blocks until the
// batch containing the request executes. This is the engine the HTTP
// handler sits on; throughput-sensitive callers with many requests in
// flight should use Submit.
func (s *Server) Predict(features []float64) ([]float64, PredictInfo, error) {
	w := syncReqPool.Get().(*syncReq)
	w.req.Features = features
	if err := s.Submit(&w.req, w.done); err != nil {
		syncReqPool.Put(w)
		return nil, PredictInfo{}, err
	}
	<-w.done
	if err := w.req.Err; err != nil {
		w.req.Features, w.req.Err = nil, nil
		syncReqPool.Put(w)
		return nil, PredictInfo{}, err
	}
	// Copy out of the pooled request: the caller owns the returned
	// slice for good, the pool entry gets reused.
	pred := append([]float64(nil), w.req.Pred...)
	info := PredictInfo{BatchSize: w.req.BatchSize, QueueWait: w.req.QueueWait}
	w.req.Features = nil
	syncReqPool.Put(w)
	return pred, info, nil
}

// syncReq is a pooled Request plus its private completion channel:
// recycling the pair keeps the synchronous Predict path free of
// per-request allocations.
type syncReq struct {
	req  Request
	done chan *Request
}

var syncReqPool = sync.Pool{
	New: func() any { return &syncReq{done: make(chan *Request, 1)} },
}

// QueueDepth reports how many admitted requests are waiting for a
// batch right now.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Generation returns the epoch and step of the checkpoint currently
// serving.
func (s *Server) Generation() (epoch, step int) {
	rs := s.rs.Load()
	return rs.epoch, rs.step
}

// DType reports the compute precision of the replica generation
// currently serving.
func (s *Server) DType() tensor.DType { return s.rs.Load().dtype }

// Metrics exposes the server's metric registry (for tests and the
// /metrics handler).
func (s *Server) Metrics() *Metrics { return s.metrics }

func (s *Server) noteReloadFailure(err error) {
	s.health.mu.Lock()
	s.health.reloadFailures++
	s.health.lastReloadErr = err.Error()
	s.health.mu.Unlock()
	s.metrics.reloadFailures.Add(1)
}

// Shutdown drains the server: new requests are rejected with
// ErrDraining, partial batches flush immediately, and every
// already-admitted request is answered before the batcher and reload
// loops stop — no dropped 200s. When Serve is running, its listener
// is shut down first under ctx's deadline so in-flight HTTP handlers
// deliver their responses.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutdownOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainc) // flush any batch waiting on MaxWait
		s.httpMu.Lock()
		srv := s.httpSrv
		s.httpMu.Unlock()
		if srv != nil {
			err = srv.Shutdown(ctx)
		}
		s.inflight.Wait() // every admitted request has its response
		close(s.stopc)    // stop batcher (drains leftovers) + reloader
		s.loopWG.Wait()
		s.batchWG.Wait()
	})
	return err
}
