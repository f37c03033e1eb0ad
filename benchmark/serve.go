package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"candle/internal/candle"
	"candle/internal/checkpoint"
	"candle/internal/data"
	"candle/internal/nn"
	"candle/internal/serve"
	"candle/internal/tensor"
)

// requestPool is how many distinct request rows a serving pass cycles
// through; each has its expected output computed once.
const requestPool = 64

// served is a checkpoint directory plus what is needed to serve it and
// to check what it answers.
type served struct {
	b     *candle.Benchmark
	dtype string
	dir   string
	// rows are the request rows, drawn from the seed's test split.
	rows [][]float64
	// want[epoch][i] is a direct Forward of rows[i] through that
	// checkpoint generation.
	want map[int][][]float64
}

// newServed draws the request rows for a seed.
func newServed(b *candle.Benchmark, dtype, dir string, seed int64) (*served, error) {
	te, err := data.GenerateTest(b.Spec, seed)
	if err != nil {
		return nil, err
	}
	sv := &served{b: b, dtype: dtype, dir: dir, want: map[int][][]float64{}}
	for i := 0; i < te.X.Rows && i < requestPool; i++ {
		sv.rows = append(sv.rows, append([]float64(nil), te.X.Row(i)...))
	}
	return sv, nil
}

// saveWeights writes one checkpoint generation the way the trainer's
// callback does (f32 models store f32 weights).
func (sv *served) saveWeights(epoch int, w []float64) error {
	snap := &checkpoint.Snapshot{Benchmark: sv.b.Spec.Name, Epoch: epoch, DType: "f64", Weights: w}
	if sv.dtype == "f32" {
		snap.DType, snap.Weights = "f32", nil
		snap.Weights32 = make([]float32, len(w))
		tensor.DemoteSlice(snap.Weights32, w)
	}
	return checkpoint.Save(checkpoint.FileFor(sv.dir, sv.b.Spec.Name, epoch), snap)
}

// expect computes the reference outputs of one checkpoint file: a
// direct Forward of every request row through a model rebuilt from it.
func (sv *served) expect(path string) error {
	snap, err := checkpoint.Load(path)
	if err != nil {
		return err
	}
	m := sv.b.Build(sv.b.Spec)
	if err := m.SetDType(snap.DTypeOrDefault()); err != nil {
		return err
	}
	if err := m.Compile(sv.b.Spec.Features, sv.b.Loss, nn.NewSGD(0), 1); err != nil {
		return err
	}
	if err := m.SetWeightsVector(snap.WeightsF64()); err != nil {
		return err
	}
	x := tensor.New(len(sv.rows), sv.b.Spec.Features)
	for i, row := range sv.rows {
		copy(x.Row(i), row)
	}
	out := m.Predict(x)
	want := make([][]float64, len(sv.rows))
	for i := range want {
		want[i] = append([]float64(nil), out.Row(i)...)
	}
	sv.want[snap.Epoch] = want
	return nil
}

// matches reports whether a served prediction equals the direct
// Forward of the generation that answered it, within 1e-5.
func (sv *served) matches(epoch, row int, pred []float64) bool {
	want, ok := sv.want[epoch]
	if !ok || len(pred) != len(want[row]) {
		return false
	}
	for j, v := range pred {
		if math.Abs(v-want[row][j]) > 1e-5 {
			return false
		}
	}
	return true
}

// newServer starts an in-process server on the directory with every
// serve.Config dimension at its default (MaxBatch 32, MaxWait 2 ms, 2
// replicas, queue 256, SLO controller off) except the reload loop,
// which is off: reloads happen when the workload says so.
func (sv *served) newServer() (*serve.Server, error) {
	return serve.New(serve.Config{
		Benchmark:   sv.b.Spec.Name,
		Dir:         sv.dir,
		Factory:     func() *nn.Sequential { return sv.b.Build(sv.b.Spec) },
		Loss:        sv.b.Loss,
		InputDim:    sv.b.Spec.Features,
		ReloadEvery: -1,
	})
}

func shutdown(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// loadStats is what one window of load measured. A request fails when
// it is shed, errors, answers wrongly, or answers later than the request
// deadline; only correct answers inside the deadline count towards
// throughput.
type loadStats struct {
	latencyMs []float64 // every answered request: from due (open loop) or send (closed)
	lagMs     []float64 // open loop: how late the generator sent
	queueMs   []float64
	serviceMs []float64
	batchRows []float64
	attempted int
	shed      int
	errored   int
	wrong     int
	late      int
	elapsedS  float64
	// skipped counts the arrivals an open-loop generator did not send
	// because it reached them more than generatorStall late. They are
	// not attempted: the stall was the generator's, not the server's.
	skipped int
	// backlog is how many requests were still unanswered when the last
	// one was sent (open loop).
	backlog int
}

func (l *loadStats) failed() int { return l.shed + l.errored + l.wrong + l.late }

func (l *loadStats) throughput() float64 {
	return float64(l.attempted-l.failed()) / l.elapsedS
}

// windowAnswers is how many answers one window of a serving pass
// holds: the fewest that leave ten beyond the 99th percentile.
const windowAnswers = 1000

// tail is the window's tail latency: the highest percentile, up to the
// 99th, that still has ten answers beyond it (the 99th from
// windowAnswers on; the maximum under twenty answers).
func (l *loadStats) tail() float64 {
	p := math.Min(tailPercentile(len(l.latencyMs)), 99)
	if p == 0 {
		p = 100
	}
	return quantile(l.latencyMs, p/100)
}

// sample books the window as one sample of each of the three serving
// end-to-end metrics.
func (l *loadStats) sample(c *runCtx) {
	c.sample("latency_p50_ms", quantile(l.latencyMs, 0.5))
	c.sample("latency_p99_ms", l.tail())
	c.sample("throughput_rps", l.throughput())
}

// merge adds another window's requests to l, which then describes the
// whole phase.
func (l *loadStats) merge(w *loadStats) {
	l.latencyMs = append(l.latencyMs, w.latencyMs...)
	l.lagMs = append(l.lagMs, w.lagMs...)
	l.queueMs = append(l.queueMs, w.queueMs...)
	l.serviceMs = append(l.serviceMs, w.serviceMs...)
	l.batchRows = append(l.batchRows, w.batchRows...)
	l.attempted += w.attempted
	l.shed += w.shed
	l.errored += w.errored
	l.wrong += w.wrong
	l.late += w.late
	l.elapsedS += w.elapsedS
	l.skipped += w.skipped
}

// book adds the phase's requests to the run's operation counts and
// checks that none failed.
func (l *loadStats) book(c *runCtx, phase string) {
	c.res.Attempted += l.attempted
	c.res.Failed += l.failed()
	c.check(phase+": every request answered correctly", l.failed() == 0,
		"%d attempted: %d shed, %d errored, %d wrong, %d late", l.attempted, l.shed, l.errored, l.wrong, l.late)
	c.logf("  %s: %d requests in %.3f s: p50 %.3f ms, p99 %.3f ms, max %.3f ms, %.1f/s, mean batch %.2f; failed %d",
		phase, l.attempted, l.elapsedS, quantile(l.latencyMs, 0.5), quantile(l.latencyMs, 0.99), quantile(l.latencyMs, 1),
		l.throughput(), mean(l.batchRows), l.failed())
}

// answer is one answered request as the client saw it.
type answer struct {
	epoch, row int // the generation that answered, the request row sent
	pred       []float64
	err        error
	latency    time.Duration
	queueWait  time.Duration
	batch      int
}

// account books one answered request.
func (l *loadStats) account(sv *served, a answer) {
	ms := a.latency.Seconds() * 1e3
	switch {
	case a.err != nil:
		l.errored++
	case !sv.matches(a.epoch, a.row, a.pred):
		l.wrong++
	case ms > requestDeadlineMs:
		l.late++
	}
	l.latencyMs = append(l.latencyMs, ms)
	queue := a.queueWait.Seconds() * 1e3
	l.queueMs = append(l.queueMs, queue)
	l.serviceMs = append(l.serviceMs, math.Max(ms-queue, 0))
	l.batchRows = append(l.batchRows, float64(a.batch))
}

// submitted is account for a request that went through Server.Submit.
// The servers of the in-process passes never reload mid-phase, so the
// generation is the one loaded when the phase began.
func (l *loadStats) submitted(sv *served, epoch, row int, req *serve.Request, latency time.Duration) {
	l.account(sv, answer{epoch: epoch, row: row, pred: req.Pred, err: req.Err,
		latency: latency, queueWait: req.QueueWait, batch: req.BatchSize})
}

// poissonSchedule draws arrival offsets at the given rate until the
// duration is spent. The same seed gives the same schedule.
func poissonSchedule(seed int64, rate float64, duration time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= duration.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// generatorStall is how late the open-loop generator may reach an
// arrival and still send it. A generator that finds itself further
// behind was itself stalled (with the whole process, on this host, for
// 20-100 ms about once a minute); sending the backlog at once would
// offer the server a burst no schedule contains, so those arrivals are
// dropped from the schedule, counted as skipped and reported.
const generatorStall = 10 * time.Millisecond

// openLoop offers the schedule to the server from one generator
// goroutine, whether or not earlier requests have been answered, and
// times every request from the instant it was due, so a stall of the
// server is charged to the requests it delayed.
func openLoop(srv *serve.Server, sv *served, due []time.Duration) *loadStats {
	n := len(due)
	reqs := make([]serve.Request, n)
	index := make(map[*serve.Request]int, n)
	for i := range reqs {
		reqs[i].Features = sv.rows[i%len(sv.rows)]
		index[&reqs[i]] = i
	}
	// Capacity for every request: a full done channel would stall the
	// server's batcher, which is the thing being measured.
	done := make(chan *serve.Request, n)
	stats := &loadStats{}
	sent := make(chan int, 1)
	epoch, _ := srv.Generation()
	// Answered requests hand their output buffers back to the generator:
	// without this every request would keep its prediction alive to the
	// end of the phase. The capacity only bounds how many idle buffers
	// are kept.
	spare := make(chan []float64, 1024)

	var answered sync.WaitGroup
	var completed int
	var mu sync.Mutex
	start := time.Now()
	answered.Add(1)
	go func() {
		defer answered.Done()
		admitted := -1 // unknown until the generator finishes
		for got := 0; admitted < 0 || got < admitted; {
			select {
			case req := <-done:
				i := index[req]
				stats.submitted(sv, epoch, i%len(sv.rows), req, time.Since(start.Add(due[i])))
				select {
				case spare <- req.Pred:
				default:
				}
				req.Pred = nil
				got++
				mu.Lock()
				completed = got
				mu.Unlock()
			case admitted = <-sent:
			}
		}
	}()

	// The generator keeps its own counts until the collector is done
	// with stats.
	admitted, shed, refused, skipped := 0, 0, 0, 0
	lagMs := make([]float64, 0, n)
	for i := range reqs {
		if wait := time.Until(start.Add(due[i])); wait > 0 {
			time.Sleep(wait)
		}
		lag := time.Since(start.Add(due[i]))
		if lag > generatorStall {
			skipped++
			continue
		}
		lagMs = append(lagMs, math.Max(lag.Seconds()*1e3, 0))
		select {
		case buf := <-spare:
			reqs[i].Pred = buf
		default:
		}
		if err := srv.Submit(&reqs[i], done); err != nil {
			if errors.Is(err, serve.ErrOverloaded) {
				shed++
			} else {
				refused++
			}
			continue
		}
		admitted++
	}
	mu.Lock()
	backlog := admitted - completed
	mu.Unlock()
	sent <- admitted
	answered.Wait()
	stats.elapsedS = time.Since(start).Seconds()
	stats.lagMs, stats.backlog = lagMs, backlog
	stats.attempted = n - skipped
	stats.skipped = skipped
	stats.shed += shed
	stats.errored += refused
	return stats
}

// closedLoop sends the given number of requests from one goroutine
// that keeps inFlight of them outstanding: the next request goes out
// only when an earlier one was answered, so a slow server is offered
// less. Every request is timed from send.
func closedLoop(srv *serve.Server, sv *served, inFlight, requests int) *loadStats {
	stats := &loadStats{}
	epoch, _ := srv.Generation()
	type slot struct {
		req  serve.Request
		row  int
		sent time.Time
	}
	slots := make([]slot, inFlight)
	slotOf := make(map[*serve.Request]*slot, inFlight)
	done := make(chan *serve.Request, inFlight)
	outstanding := 0
	start := time.Now()
	send := func(sl *slot) {
		for stats.attempted < requests {
			sl.row = stats.attempted % len(sv.rows)
			sl.req.Features = sv.rows[sl.row]
			stats.attempted++
			sl.sent = time.Now()
			if err := srv.Submit(&sl.req, done); err != nil {
				stats.shed++
				continue
			}
			outstanding++
			return
		}
	}
	for i := range slots {
		slotOf[&slots[i].req] = &slots[i]
		send(&slots[i])
	}
	for outstanding > 0 {
		req := <-done
		outstanding--
		sl := slotOf[req]
		stats.submitted(sv, epoch, sl.row, req, time.Since(sl.sent))
		send(sl)
	}
	stats.elapsedS = time.Since(start).Seconds()
	return stats
}

// serveInFlight is how many requests the closed loop of a training
// workload's serving pass keeps outstanding: half of the server's
// default MaxBatch, so batches form but never fill and the 2 ms MaxWait
// always runs out — the regime a lightly loaded server is in.
const serveInFlight = 16

// servePass is the serving half of a training workload: the weights the
// warm-up run ended on (every run of a seed ends on the same ones),
// checkpointed and served in-process with default settings, answering
// one window of closed-loop requests per round.
type servePass struct {
	sv    *served
	srv   *serve.Server
	span  *span
	total loadStats
}

func newServePass(c *runCtx, b *candle.Benchmark, dtype string, weights []float64, root *span) (*servePass, error) {
	dir := filepath.Join(c.dir, "served")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sv, err := newServed(b, dtype, dir, c.seed)
	if err != nil {
		return nil, err
	}
	if err := sv.saveWeights(0, weights); err != nil {
		return nil, err
	}
	if err := sv.expect(checkpoint.FileFor(dir, b.Spec.Name, 0)); err != nil {
		return nil, err
	}
	srv, err := sv.newServer()
	if err != nil {
		return nil, err
	}
	p := &servePass{sv: sv, srv: srv, span: root}
	closedLoop(srv, sv, serveInFlight, p.requests(c)/5) // warm-up, untimed
	return p, nil
}

func (p *servePass) requests(c *runCtx) int {
	if c.smoke {
		return windowAnswers / 10
	}
	return windowAnswers
}

// window sends one window of requests and books it as one sample of
// each serving metric.
func (p *servePass) window(c *runCtx) {
	settle()
	sp := c.spans.begin("serve_window", "serve", p.span)
	var st *loadStats
	c.around(func() {
		st = closedLoop(p.srv, p.sv, serveInFlight, p.requests(c))
		sp.end()
	})
	st.sample(c)
	p.total.merge(st)
}

func (p *servePass) close() {
	if p.srv != nil {
		shutdown(p.srv)
	}
}

// finish stops the server and books every window's requests.
func (p *servePass) finish(c *runCtx) error {
	err := shutdown(p.srv)
	p.srv = nil
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	p.total.book(c, "serve_pass")
	return nil
}
