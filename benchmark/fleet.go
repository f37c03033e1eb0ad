package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"candle/internal/checkpoint"
	"candle/internal/fleet"
	"candle/internal/serve"
)

// replica is one serve.Server answering HTTP on loopback.
type replica struct {
	id   string
	dir  string
	srv  *serve.Server
	ln   net.Listener
	done chan error
}

func startReplica(sv *served, id, dir string) (*replica, error) {
	local := *sv
	local.dir = dir
	srv, err := local.newServer()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdown(srv)
		return nil, err
	}
	r := &replica{id: id, dir: dir, srv: srv, ln: ln, done: make(chan error, 1)}
	go func() { r.done <- srv.Serve(ln) }()
	return r, nil
}

func (r *replica) stop() error {
	err := shutdown(r.srv)
	if serveErr := <-r.done; err == nil {
		err = serveErr
	}
	return err
}

// copyFile copies a checkpoint into a replica's directory the way a
// trainer publishes one: written beside, then renamed into place.
func copyFile(src, dstDir string) error {
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dstDir, ".incoming-"+filepath.Base(src))
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dstDir, filepath.Base(src)))
}

// predictReply is the wire shape of a /predict answer.
type predictReply struct {
	Prediction   []float64 `json:"prediction"`
	BatchSize    int       `json:"batch_size"`
	QueueSeconds float64   `json:"queue_seconds"`
	Epoch        int       `json:"epoch"`
}

// httpAnswer is one answered HTTP request with its place in time.
type httpAnswer struct {
	answer
	sent, done time.Time
	conn       int
}

// post sends one row to url/predict and decodes the answer.
func post(client *http.Client, url string, body []byte, row int) httpAnswer {
	a := httpAnswer{sent: time.Now()}
	a.row = row
	resp, err := client.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err == nil {
		var raw []byte
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		var reply predictReply
		switch {
		case err != nil:
		case resp.StatusCode != http.StatusOK:
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		default:
			if err = json.Unmarshal(raw, &reply); err == nil {
				a.pred, a.epoch, a.batch = reply.Prediction, reply.Epoch, reply.BatchSize
				a.queueWait = time.Duration(reply.QueueSeconds * float64(time.Second))
			}
		}
	}
	a.err = err
	a.done = time.Now()
	a.latency = a.done.Sub(a.sent)
	return a
}

// encodeRows pre-encodes every request row as a /predict body.
func encodeRows(rows [][]float64) [][]byte {
	out := make([][]byte, len(rows))
	for i, row := range rows {
		buf := []byte(`{"features":[`)
		for j, v := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		out[i] = append(buf, "]}"...)
	}
	return out
}

// httpClosedLoop sends the given number of requests over conns
// keep-alive connections, each sending its next request only when the
// previous one was answered, and calls half (once) when half of them
// have been sent.
func httpClosedLoop(client *http.Client, url string, bodies [][]byte, conns, requests int, half func()) []httpAnswer {
	var mu sync.Mutex
	var all []httpAnswer
	var wg sync.WaitGroup
	var next atomic.Int64
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var mine []httpAnswer
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					break
				}
				if i == requests/2 && half != nil {
					half()
				}
				a := post(client, url, bodies[i%len(bodies)], i%len(bodies))
				a.conn = k
				mine = append(mine, a)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	return all
}

// idleMedian is the median latency of n requests sent one at a time.
func idleMedian(n int, one func() time.Duration) float64 {
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = one().Seconds() * 1e3
	}
	return median(ms)
}

// fleetSubWindow is how many consecutive answers of a cycle one sample
// of latency_p50_ms and throughput_rps is taken over (0.45 s at the 450
// requests per second two connections reach); latency_p99_ms needs the
// whole cycle of windowAnswers.
const fleetSubWindow = 200

// firstPublished is the epoch number of the first generation the
// operator publishes: above every epoch the set-up trained.
const firstPublished = 100

// fleetClosed is the fleet_closed workload: a router and two replicas
// registered over the control plane, all HTTP on loopback, two
// keep-alive connections in closed loop. The load comes in cycles of
// windowAnswers requests, one per round; halfway through each cycle the
// operator drops a newer checkpoint generation into both replica
// directories and has the router roll it out (writes beside reads).
func fleetClosed(c *runCtx) error {
	s := servedModel
	cycle, idleN := windowAnswers, 100
	if c.smoke {
		s = s.smoke()
		cycle, idleN = windowAnswers/10, 5
	}
	gens := s.generations()
	const conns = 2
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
	trained := make([]*checkpoint.Snapshot, len(gens))
	for i, e := range gens {
		path := checkpoint.FileFor(ckptDir, b.Spec.Name, e)
		if err := sv.expect(path); err != nil {
			return err
		}
		if trained[i], err = checkpoint.Load(path); err != nil {
			return err
		}
	}

	// The fleet: every replica starts on the oldest generation.
	router := fleet.NewRouter(fleet.Config{ReloadEvery: -1})
	ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctlDone, httpDone := make(chan error, 1), make(chan error, 1)
	go func() { ctlDone <- router.ServeControl(ctlLn) }()
	go func() { httpDone <- router.Serve(httpLn) }()
	var replicas []*replica
	stopped := false
	stopAll := func() error {
		if stopped {
			return nil
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		err := router.Shutdown(ctx)
		for _, done := range []chan error{ctlDone, httpDone} {
			if e := <-done; err == nil {
				err = e
			}
		}
		for _, r := range replicas {
			if e := r.stop(); err == nil {
				err = e
			}
		}
		return err
	}
	defer stopAll()

	var registerS []float64
	for i := 0; i < 2; i++ {
		dir := filepath.Join(c.dir, fmt.Sprintf("replica%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := copyFile(checkpoint.FileFor(ckptDir, b.Spec.Name, gens[0]), dir); err != nil {
			return err
		}
		r, err := startReplica(sv, fmt.Sprintf("r%d", i), dir)
		if err != nil {
			return err
		}
		replicas = append(replicas, r)
		epoch, step := r.srv.Generation()
		sp := c.spans.begin("register", "fleet", root)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err = fleet.Register(ctx, "tcp", ctlLn.Addr().String(), r.id, r.ln.Addr().String(), epoch, step)
		cancel()
		registerS = append(registerS, sp.end())
		if err != nil {
			return err
		}
	}
	routerURL := "http://" + httpLn.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}, Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	bodies := encodeRows(sv.rows)

	direct := 0 // requests sent to a replica around the router
	httpClosedLoop(client, routerURL, bodies, conns, cycle/5, nil)
	if c.traced {
		// Idle, one request at a time: in-process Submit, the same
		// replica over HTTP, and the router in front of it.
		r0 := replicas[0]
		submit := idleMedian(idleN, func() time.Duration {
			t0 := time.Now()
			r0.srv.Predict(sv.rows[0])
			return time.Since(t0)
		})
		overHTTP := idleMedian(idleN, func() time.Duration {
			return post(client, "http://"+r0.ln.Addr().String(), bodies[0], 0).latency
		})
		viaRouter := idleMedian(idleN, func() time.Duration { return post(client, routerURL, bodies[0], 0).latency })
		direct += 2 * idleN
		c.set("serve.http_overhead_ms", overHTTP-submit)
		c.set("fleet.proxy_overhead_ms", viaRouter-overHTTP)
		c.logf("  idle latency: Submit %.3f ms, + HTTP %.3f ms, + router hop %.3f ms", submit, overHTTP-submit, viaRouter-overHTTP)
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	staging := filepath.Join(c.dir, "staging")
	total := &loadStats{}
	lastEpoch := make([]int, conns)
	backwards, published := 0, gens[0]
	var reloadS, inWindow []float64
	err = c.rounds(minRounds, func(i int) error {
		if !c.traced {
			if err := su.timed(c, root); err != nil {
				return err
			}
		}
		// The trainer's next generation, written where the operator
		// will pick it up: the trained checkpoints in turn, renumbered
		// upwards.
		snap := *trained[(i+1)%len(trained)]
		sv.want[firstPublished+i] = sv.want[snap.Epoch]
		snap.Epoch = firstPublished + i
		staged := checkpoint.FileFor(staging, b.Spec.Name, snap.Epoch)
		if err := checkpoint.Save(staged, &snap); err != nil {
			return err
		}
		settle()

		var from, to time.Time
		var reloadErr error
		var operator sync.WaitGroup
		rollOut := func() {
			operator.Add(1)
			go func() {
				defer operator.Done()
				from = time.Now()
				for _, r := range replicas {
					if reloadErr = copyFile(staged, r.dir); reloadErr != nil {
						return
					}
				}
				sp := c.spans.begin("fleet_reload", "fleet", root)
				epoch, _, err := router.Reload()
				reloadS = append(reloadS, sp.end())
				to = time.Now()
				if err != nil || epoch != snap.Epoch {
					reloadErr = fmt.Errorf("reload to epoch %d ended on %d: %v", snap.Epoch, epoch, err)
				}
			}()
		}
		loadSpan := c.spans.begin("closed_loop_cycle", "fleet", root)
		var start time.Time
		var answers []httpAnswer
		var elapsed float64
		c.around(func() {
			start = time.Now()
			answers = httpClosedLoop(client, routerURL, bodies, conns, cycle, rollOut)
			elapsed = loadSpan.end()
		})
		operator.Wait()
		if reloadErr != nil {
			return reloadErr
		}
		published = snap.Epoch

		stats := &loadStats{attempted: len(answers), elapsedS: elapsed}
		// answers are grouped per connection in send order, so the scan
		// sees each connection's generations in the order it did.
		for _, a := range answers {
			stats.account(sv, a.answer)
			if a.err == nil {
				if a.epoch < lastEpoch[a.conn] {
					backwards++
				}
				lastEpoch[a.conn] = a.epoch
			}
			if a.sent.Before(to) && a.done.After(from) {
				inWindow = append(inWindow, a.latency.Seconds()*1e3)
			}
			if c.traced {
				c.spans.tl.Complete("request", "fleet", 0, benchLane+1+a.conn, a.sent.Sub(c.spans.start).Seconds(), a.latency.Seconds())
			}
		}
		c.sample("latency_p99_ms", stats.tail())
		sampleSubWindows(c, answers, start)
		total.merge(stats)
		if !c.traced {
			return su.timed(c, root)
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.check("generations never go backwards on a connection", backwards == 0, "%d steps backwards", backwards)
	finalEpoch, _ := router.Generation()
	c.check("fleet ended on the newest generation", finalEpoch == published, "epoch %d, published %d", finalEpoch, published)

	proxied := router.Metrics().Proxied()
	var replicaRequests uint64
	minP, maxP := ^uint64(0), uint64(0)
	for _, m := range router.Members() {
		if m.Proxied < minP {
			minP = m.Proxied
		}
		if m.Proxied > maxP {
			maxP = m.Proxied
		}
	}
	meanBatch := 0.0
	for _, r := range replicas {
		replicaRequests += r.srv.Metrics().Requests()
		meanBatch += r.srv.Metrics().MeanBatch() / float64(len(replicas))
	}
	// idleN of the direct requests went through Predict in-process and
	// idleN over the replica's own HTTP port; both reach the replica's
	// queue without passing the router.
	c.check("router proxied = sum of replica requests", proxied+uint64(direct) == replicaRequests,
		"router proxied %d (+%d sent around it), replicas admitted %d", proxied, direct, replicaRequests)
	if err := stopAll(); err != nil {
		return fmt.Errorf("fleet shutdown: %w", err)
	}
	total.book(c, "closed_loop")

	if !c.traced {
		su.finish(c)
		return nil
	}
	c.set("fleet.reload_s", mean(reloadS))
	tailP := tailPercentile(len(inWindow))
	if tailP == 0 || tailP > 99 {
		tailP = 99
	}
	c.set("fleet.reload_window_latency_p99_ms", quantile(inWindow, tailP/100))
	c.set("fleet.proxied", float64(proxied))
	c.set("fleet.failovers", float64(router.Metrics().Failovers()))
	c.set("fleet.register_s", mean(registerS))
	if minP > 0 {
		c.set("fleet.replica_imbalance", float64(maxP)/float64(minP))
	}
	c.set("serve.batch_rows_mean", meanBatch)
	c.set("serve.requests", float64(replicaRequests))
	c.set("serve.queue_wait_ms_p50", quantile(total.queueMs, 0.5))
	c.set("serve.queue_wait_ms_p99", quantile(total.queueMs, 0.99))
	c.set("serve.service_ms_p50", quantile(total.serviceMs, 0.5))
	c.logf("  latency budget: p50 %.3f ms = queue wait %.3f ms + service, HTTP and proxy hop %.3f ms; %d requests overlapped a reload (tail %.3f ms)",
		quantile(total.latencyMs, 0.5), quantile(total.queueMs, 0.5), quantile(total.serviceMs, 0.5), len(inWindow), quantile(inWindow, tailP/100))
	if err := probeCheckpoint(c, b, s.dtype, root); err != nil {
		return err
	}
	processMetrics(c, before)
	return nil
}

// sampleSubWindows cuts a cycle's answers, in the order they arrived,
// into windows of fleetSubWindow and books each window's median latency
// and answer rate as a sample.
func sampleSubWindows(c *runCtx, answers []httpAnswer, start time.Time) {
	byDone := append([]httpAnswer(nil), answers...)
	sort.Slice(byDone, func(i, j int) bool { return byDone[i].done.Before(byDone[j].done) })
	size := fleetSubWindow
	if size > len(byDone) {
		size = len(byDone)
	}
	for from := 0; from+size <= len(byDone); from += size {
		window := byDone[from : from+size]
		ms := make([]float64, 0, size)
		ok := 0
		for _, a := range window {
			ms = append(ms, a.latency.Seconds()*1e3)
			if a.err == nil {
				ok++
			}
		}
		end := window[size-1].done
		c.sample("latency_p50_ms", median(ms))
		c.sample("throughput_rps", float64(ok)/end.Sub(start).Seconds())
		start = end
	}
}
