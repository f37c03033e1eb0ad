package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"candle/internal/candle"
	"candle/internal/checkpoint"
	"candle/internal/serve"
)

// servingSetUp is the serving workloads' set-up: generate the seed's
// data, train servedModel on it with a checkpoint every few epochs, and
// flush the checkpoints. It is repeated once per round for setup_s, and
// its training runs are the samples of the workload's borrowed training
// metrics (run_s, time_to_target_s, train_samples_per_s).
type servingSetUp struct {
	s    trainSpec
	b    *candle.Benchmark
	t    trainRuns
	warm oneRun
	n    int
}

// build does one set-up into dir.
func (u *servingSetUp) build(dir string, seed int64) (oneRun, error) {
	if _, err := prepareData(u.b, dir, seed); err != nil {
		return oneRun{}, err
	}
	ckptDir := filepath.Join(dir, "ckpt")
	r, err := u.s.run(u.b, dir, "", ckptDir, false, false)
	if err != nil {
		return r, err
	}
	var files []string
	for _, e := range u.s.generations() {
		files = append(files, checkpoint.FileFor(ckptDir, u.b.Spec.Name, e))
	}
	return r, flush(files...)
}

// first is the untimed set-up whose checkpoints the workload serves
// (every set-up of a seed writes the same ones). It returns their
// directory.
func (u *servingSetUp) first(c *runCtx, root *span) (string, error) {
	dir := filepath.Join(c.dir, "served")
	sp := c.spans.begin("setup_untimed", "bench", root)
	r, err := u.build(dir, c.seed)
	sp.end()
	if err != nil {
		return "", fmt.Errorf("set-up: %w", err)
	}
	u.warm = r
	c.logf("%s: trained %s %dx%d for %d epochs in set-up; test loss by epoch %.5v", c.w.Name, u.b.Spec.Name,
		u.b.Spec.TrainSamples, u.b.Spec.Features, u.s.epochs, r.res.Root.EpochTestLoss)
	return filepath.Join(dir, "ckpt"), nil
}

// timed is one more set-up, booked as a sample of setup_s and of the
// three training metrics.
func (u *servingSetUp) timed(c *runCtx, root *span) error {
	u.n++
	settle()
	var r oneRun
	err := timedSetUp(c, root, u.n, func(dir string) error {
		var err error
		r, err = u.build(dir, c.seed)
		return err
	})
	if err == nil {
		u.t.add(c, u.s, u.b, r)
	}
	return err
}

// finish checks the set-ups' training runs like any other and books
// them.
func (u *servingSetUp) finish(c *runCtx) {
	u.s.checkOutputs(c, append([]oneRun{u.warm}, u.t.runs...))
	u.t.book(c, u.s)
}

// openWindow is how long one open-loop window of serve_open offers a
// rate: 2500 arrivals at the low rate, so every window supports its
// 99th percentile.
const openWindow = 500 * time.Millisecond

// serveOpen is the serve_open workload: one in-process server over the
// newest checkpoint. Each round offers one window of seeded Poisson
// arrivals from a single generator goroutine at the middle rate, which
// gives latency_p50_ms and latency_p99_ms, and one window of a
// saturating closed loop, which gives throughput_rps: what the server
// answers when it is never left waiting for a request. The traced pass
// offers the low and the high rate as well.
func serveOpen(c *runCtx) error {
	s := servedModel
	window, saturating := openWindow, saturationRequests
	low, mid, high := rateLow, rateMid, rateHigh
	if c.smoke {
		s = s.smoke()
		window, saturating = openWindow/10, saturationRequests/20
		// A fifth of the rates: the race detector takes most of the
		// server's capacity away, and a shed request fails the run.
		low, mid, high = rateLow/5, rateMid/5, rateHigh/5
	}
	b, err := s.benchmark()
	if err != nil {
		return err
	}
	root := c.spans.begin(c.w.Name, "bench", nil)
	defer root.end()
	su := &servingSetUp{s: s, b: b}
	ckptDir, err := su.first(c, root)
	if err != nil {
		return err
	}
	sv, err := newServed(b, s.dtype, ckptDir, c.seed)
	if err != nil {
		return err
	}
	newest := s.epochs - 1
	if err := sv.expect(checkpoint.FileFor(ckptDir, b.Spec.Name, newest)); err != nil {
		return err
	}
	srv, err := sv.newServer()
	if err != nil {
		return err
	}
	defer shutdown(srv)

	// One window at a rate: its own schedule per rate and round, the
	// same in both passes.
	offered := 0
	offer := func(rate float64) *loadStats {
		settle()
		sp := c.spans.begin(fmt.Sprintf("rate_%.0f", rate), "serve", root)
		defer sp.end()
		offered++
		var st *loadStats
		c.around(func() {
			st = openLoop(srv, sv, poissonSchedule(c.seed*1<<20+int64(rate)*64+int64(offered), rate, window))
		})
		return st
	}
	saturate := func() *loadStats {
		settle()
		sp := c.spans.begin("saturating_closed_loop", "serve", root)
		defer sp.end()
		var st *loadStats
		c.around(func() { st = closedLoop(srv, sv, saturationInFlight, saturating) })
		return st
	}
	offer(mid) // warm-up, not booked
	closedLoop(srv, sv, saturationInFlight, saturating/4)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	rates := []float64{mid}
	if c.traced {
		rates = []float64{low, mid, high}
	}
	totals := map[float64]*loadStats{}
	tails := map[float64][]float64{}
	backlog := map[float64]int{}
	saturated := &loadStats{}
	err = c.rounds(minRounds, func(i int) error {
		if !c.traced {
			if err := su.timed(c, root); err != nil {
				return err
			}
		}
		for _, rate := range rates {
			st := offer(rate)
			if totals[rate] == nil {
				totals[rate] = &loadStats{}
			}
			totals[rate].merge(st)
			tails[rate] = append(tails[rate], st.tail())
			if st.backlog > backlog[rate] {
				backlog[rate] = st.backlog
			}
			if rate == mid {
				c.sample("latency_p50_ms", quantile(st.latencyMs, 0.5))
				c.sample("latency_p99_ms", st.tail())
			}
		}
		sat := saturate()
		c.sample("throughput_rps", sat.throughput())
		saturated.merge(sat)
		return nil
	})
	if err != nil {
		return err
	}
	for _, rate := range rates {
		totals[rate].book(c, fmt.Sprintf("rate_%.0f", rate))
		c.logf("    %d arrivals skipped by a stalled generator, at most %d unanswered when a window's last was sent",
			totals[rate].skipped, backlog[rate])
	}
	saturated.book(c, "saturating_closed_loop")
	if !c.traced {
		su.finish(c)
		return nil
	}

	atMid := totals[mid]
	c.set("serve.queue_wait_ms_p50", quantile(atMid.queueMs, 0.5))
	c.set("serve.queue_wait_ms_p99", quantile(atMid.queueMs, 0.99))
	c.set("serve.service_ms_p50", quantile(atMid.serviceMs, 0.5))
	c.set("serve.batch_rows_mean", mean(totals[high].batchRows))
	c.set("serve.requests", float64(srv.Metrics().Requests()))
	c.set("serve.shed", float64(srv.Metrics().Rejected()))
	c.set("serve.rate_low.latency_p99_ms", best(tails[low], "lower"))
	c.set("serve.rate_high.latency_p99_ms", best(tails[high], "lower"))
	within := 0.0
	var lag []float64
	skipped := 0
	for _, rate := range rates {
		// Within the limit: the tail under the latency limit, nothing
		// failed, and no backlog left growing behind the generator.
		// A request left unanswered longer than the limit is a backlog:
		// at most rate x limit may be outstanding when a window ends.
		if best(tails[rate], "lower") <= tailLimitMs && totals[rate].failed() == 0 && float64(backlog[rate]) <= rate*tailLimitMs/1e3 {
			within = rate
		}
		lag = append(lag, totals[rate].lagMs...)
		skipped += totals[rate].skipped
	}
	c.set("serve.max_rate_within_limit_rps", within)
	c.set("bench.generator_lag_ms_p99", quantile(lag, 0.99))
	c.set("bench.generator_skipped", float64(skipped))
	c.logf("  latency budget at the middle rate: p50 %.3f ms = queue wait %.3f ms + service %.3f ms",
		quantile(atMid.latencyMs, 0.5), quantile(atMid.queueMs, 0.5), quantile(atMid.serviceMs, 0.5))

	// One reload of a newer generation, timed, after the load.
	reloadS, err := timedReload(c, sv, srv, newest, root)
	if err != nil {
		return err
	}
	c.set("serve.reload_s", reloadS)
	if err := probeCheckpoint(c, b, s.dtype, root); err != nil {
		return err
	}
	if err := s.probeModel(c, b, root); err != nil {
		return err
	}
	processMetrics(c, before)
	return nil
}

// timedReload re-saves the newest checkpoint as the next generation and
// times Server.TryReload picking it up.
func timedReload(c *runCtx, sv *served, srv *serve.Server, newest int, root *span) (float64, error) {
	snap, err := checkpoint.Load(checkpoint.FileFor(sv.dir, sv.b.Spec.Name, newest))
	if err != nil {
		return 0, err
	}
	snap.Epoch++
	if err := checkpoint.Save(checkpoint.FileFor(sv.dir, sv.b.Spec.Name, snap.Epoch), snap); err != nil {
		return 0, err
	}
	sp := c.spans.begin("try_reload", "serve", root)
	reloaded, err := srv.TryReload()
	seconds := sp.end()
	if err != nil {
		return 0, err
	}
	c.check("reload picked up the newer generation", reloaded, "TryReload returned %v", reloaded)
	return seconds, nil
}
