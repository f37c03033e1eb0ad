package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"candle/internal/trace"
)

// environment is recorded in every result file: enough to judge
// whether two results are comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	AVX        bool   `json:"avx"`
	AVX2       bool   `json:"avx2"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
}

func readEnvironment(seed int64, traced bool) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        runtime.GOARCH,
		Commit:     "unknown",
		Seed:       seed,
		Traced:     traced,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			key, val, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name":
				if env.CPU == runtime.GOARCH {
					env.CPU = strings.TrimSpace(val)
				}
			case "flags":
				fields := strings.Fields(val)
				env.AVX = env.AVX || contains(fields, "avx")
				env.AVX2 = env.AVX2 || contains(fields, "avx2")
			}
		}
	}
	// A checkout that is not a git repository (the driver's) has no
	// commit to name.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is everything one run of one workload produced. The
// contract's last line is a projection of it.
type result struct {
	Workload    string           `json:"workload"`
	Environment environment      `json:"environment"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Metrics     map[string]value `json:"metrics"`
	// Samples holds what each end-to-end metric is the best of, as
	// measured: one value per round of the run.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// HostReadingsMs are the run's readings of the host reference,
	// HostReferenceMs their lower quartile and HostFactor what it
	// scaled the best samples by (host.go).
	HostReadingsMs  []float64 `json:"host_readings_ms,omitempty"`
	HostReferenceMs float64   `json:"host_reference_ms"`
	HostFactor      float64   `json:"host_factor"`
	Checks          []check   `json:"checks"`
	// Fingerprint is printed so that parent and change can be compared
	// to rounding: the final weights' checksum and test loss of the
	// timed runs.
	WeightsChecksum float64 `json:"weights_checksum"`
	TestLoss        float64 `json:"test_loss"`
}

// runCtx carries one run of one workload.
type runCtx struct {
	options // out: result and trace files go here; "" writes none
	w       *workload
	dir     string // scratch, inside the checkout, removed afterwards
	log     io.Writer
	res     *result
	spans   *spanLog
}

func newRunCtx(w *workload, o options, dir string, log io.Writer) *runCtx {
	return &runCtx{
		options: o, w: w, dir: dir, log: log,
		res: &result{
			Workload:    w.Name,
			Environment: readEnvironment(o.seed, o.traced),
			Metrics:     map[string]value{},
			Samples:     map[string][]float64{},
		},
		spans: newSpanLog(w.Name),
	}
}

func (c *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(c.log, format+"\n", args...)
}

// check records an output check; a failed one makes the run incorrect.
func (c *runCtx) check(name string, ok bool, format string, args ...any) {
	c.res.Checks = append(c.res.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		c.logf("CHECK FAILED %s: %s", name, fmt.Sprintf(format, args...))
	}
}

// set records a metric by name; the unit comes from the tables in
// spec.go, so a name that is not declared there is a bug.
func (c *runCtx) set(name string, v float64) {
	for _, table := range [][]metric{endToEnd, perLayer} {
		for _, m := range table {
			if m.Name == name {
				c.res.Metrics[name] = value{Value: v, Unit: m.Unit}
				return
			}
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// sample books one measurement of an end-to-end metric. The value the
// run reports is the best of a metric's samples (reportBest).
func (c *runCtx) sample(name string, v float64) {
	c.res.Samples[name] = append(c.res.Samples[name], v)
}

// minRounds is the floor on rounds whatever --seconds says.
const minRounds = 3

// rounds runs one round after another until --seconds are spent, never
// fewer than atLeast (two at test scale). A round takes one sample of
// every metric it is about, so each metric's samples are spread over the
// whole run and a slow stretch of the host cannot swallow all of them.
func (c *runCtx) rounds(atLeast int, round func(i int) error) error {
	if c.smoke {
		atLeast = 2
	}
	begin := time.Now()
	for i := 0; i < atLeast || (!c.smoke && time.Since(begin).Seconds() < c.seconds); i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// reportBest sets every end-to-end metric to the best of its samples —
// the smallest where lower is better, the largest where higher is —
// scaled to an undisturbed host (host.go). The best sample is the one
// the host disturbed least: the median of a run's samples measures how
// much of the run fell into the host's slow states, and differs by
// 10-20 % between two runs of the same code (README, "Run discipline").
func (c *runCtx) reportBest() {
	c.res.HostReferenceMs, c.res.HostFactor = hostFactor(c.res.HostReadingsMs)
	for _, m := range endToEnd {
		xs := c.res.Samples[m.Name]
		if len(xs) == 0 {
			continue
		}
		if m.Better == "higher" {
			c.set(m.Name, best(xs, m.Better)/c.res.HostFactor)
		} else {
			c.set(m.Name, best(xs, m.Better)*c.res.HostFactor)
		}
	}
}

// finish fills in what every run reports, checks the metric set
// against the tables, and settles correctness.
func (c *runCtx) finish() {
	c.reportBest()
	table := endToEnd
	if c.traced {
		table = perLayer
	}
	for _, m := range table {
		v, ok := c.res.Metrics[m.Name]
		switch {
		case !ok && c.traced:
			// A layer this workload does not exercise did no work.
			c.set(m.Name, 0)
		case !ok:
			c.check("metric:"+m.Name, false, "end-to-end metric not measured")
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			c.check("metric:"+m.Name, false, "not finite: %v", v.Value)
		case !c.traced && v.Value <= 0:
			c.check("metric:"+m.Name, false, "end-to-end metric must be positive, got %v", v.Value)
		}
	}
	for name := range c.res.Metrics {
		if !declared(table, name) {
			delete(c.res.Metrics, name)
		}
	}
	c.res.Correct = c.res.Failed == 0
	for _, ch := range c.res.Checks {
		c.res.Correct = c.res.Correct && ch.OK
	}
	if c.res.Attempted < 1 {
		c.res.Attempted = 1
	}
}

func declared(table []metric, name string) bool {
	for _, m := range table {
		if m.Name == name {
			return true
		}
	}
	return false
}

// lastLine is the one JSON object the contract wants on the last line
// of standard output.
func (r *result) lastLine() string {
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
	raw, err := json.Marshal(line)
	if err != nil {
		// Only a non-finite float can fail here; finish() turned those
		// into failed checks, so strip and retry.
		for k, v := range line.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				line.Metrics[k] = value{Value: 0, Unit: v.Unit}
			}
		}
		line.Correct = false
		raw, _ = json.Marshal(line)
	}
	return string(raw)
}

// resultFileName names a workload's result file inside an -out
// directory.
func resultFileName(workload string, seed int64, traced bool) string {
	kind := "e2e"
	if traced {
		kind = "traced"
	}
	return fmt.Sprintf("%s.seed%d.%s.json", workload, seed, kind)
}

func (c *runCtx) writeFiles() error {
	if c.out == "" {
		return nil
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(c.res, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	path := filepath.Join(c.out, resultFileName(c.w.Name, c.seed, c.traced))
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if !c.traced {
		return nil
	}
	f, err := os.Create(filepath.Join(c.out, c.w.Name+".trace.json"))
	if err != nil {
		return err
	}
	if err := c.spans.tl.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanLog records the benchmark's own spans, around the calls it makes
// into each layer, on one timeline per workload. Every span carries
// its id, its parent's id and the workload's name, and the traced
// run's rank events are merged in under the repeat that caused them.
type spanLog struct {
	workload string
	tl       *trace.Timeline
	start    time.Time
	nextID   atomic.Int64 // spans are opened from more than one goroutine
}

// benchLane is the thread id the benchmark's own spans use in the
// Chrome trace; rank events keep their rank as thread id.
const benchLane = 1000

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, tl: trace.NewTimeline(), start: time.Now()}
}

type span struct {
	log    *spanLog
	id     int
	parent int
	name   string
	layer  string
	begin  float64
}

func (l *spanLog) now() float64 { return time.Since(l.start).Seconds() }

// begin opens a span; parent is nil for a root.
func (l *spanLog) begin(name, layer string, parent *span) *span {
	s := &span{log: l, id: int(l.nextID.Add(1)), name: name, layer: layer, begin: l.now()}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

// end closes the span and returns its duration in seconds.
func (s *span) end() float64 {
	dur := s.log.now() - s.begin
	s.log.tl.Add(trace.Event{
		Name: s.name, Cat: s.layer, Start: s.begin, Dur: dur, TID: benchLane,
		Args: map[string]any{"id": s.id, "parent": s.parent, "workload": s.log.workload},
	})
	return dur
}

// adopt merges a run's own timeline (run-relative clock) under the
// span that ran it.
func (s *span) adopt(tl *trace.Timeline) {
	for _, e := range tl.Events() {
		e.Start += s.begin
		if e.Args == nil {
			e.Args = map[string]any{}
		}
		e.Args["parent"] = s.id
		e.Args["workload"] = s.log.workload
		s.log.tl.Add(e)
	}
}
