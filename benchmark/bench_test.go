package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"candle/internal/checkpoint"
)

// TestContractMatchesTables holds BENCHMARK.json to the tables in
// spec.go, and the tables to the limits the contract puts on them.
func TestContractMatchesTables(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, describe()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -describe`; regenerate it")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
	if len(workloads) != 7 {
		t.Errorf("%d workloads, want 7", len(workloads))
	}
	if len(perLayer) >= 128 {
		t.Errorf("%d per-layer metrics, want fewer than 128", len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	// Paired sets are held to the issue's bounds: a tenth, 15 % for the
	// tail, 25 % for set-up. The contract's bound is at most 0.25, never
	// under the paired one, and largest for set-up.
	paired := map[string]float64{
		"run_s": 0.10, "time_to_target_s": 0.10, "train_samples_per_s": 0.10,
		"latency_p50_ms": 0.10, "latency_p99_ms": 0.15, "throughput_rps": 0.10, "setup_s": 0.25,
	}
	if len(endToEnd) != len(paired) {
		t.Errorf("%d end-to-end metrics, want %d", len(endToEnd), len(paired))
	}
	setupBound := 0.0
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range endToEnd {
		if want, ok := paired[m.Name]; !ok || m.Paired != want {
			t.Errorf("%s: paired bound %v, want %v", m.Name, m.Paired, want)
		}
		if m.Bound < m.Paired || m.Bound > 0.25 || m.Bound > setupBound {
			t.Errorf("%s: bound %v must lie between its paired bound %v and setup_s's, at most 0.25", m.Name, m.Bound, m.Paired)
		}
	}
	// Every workload is built for one kind of metric and borrows the other.
	for i := range workloads {
		w := &workloads[i]
		built := 0
		for _, m := range endToEnd {
			if w.builtFor(m.Name) {
				built++
			}
		}
		if built != 4 || !w.builtFor("setup_s") || w.builtFor("run_s") == w.builtFor("latency_p50_ms") {
			t.Errorf("%s is built for %d metrics, want its own three and setup_s", w.Name, built)
		}
	}
	for _, m := range perLayer {
		if m.Layer == "" || m.Moves == "" || !strings.HasPrefix(m.Name, m.Layer+".") {
			t.Errorf("per-layer metric %s needs its layer as prefix and a predicted interaction", m.Name)
		}
	}
}

// TestReadmeNamesEverything keeps the README's workload and interaction
// tables complete.
func TestReadmeNamesEverything(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not mention workload %s", w.Name)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not mention metric %s", m.Name)
		}
	}
}

// TestSmokeEveryWorkload runs all seven workloads at test scale, both
// passes, and asserts that each emits exactly the metrics of its pass,
// once, with the declared unit and a finite value, and passes its own
// output checks.
func TestSmokeEveryWorkload(t *testing.T) {
	chdirTemp(t)
	start := time.Now()
	for _, traced := range []bool{false, true} {
		table := endToEnd
		if traced {
			table = perLayer
		}
		for i := range workloads {
			w := &workloads[i]
			var log bytes.Buffer
			res, err := runWorkload(w, options{seed: 29, traced: traced, smoke: true, out: "out"}, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(table))
			}
			for _, m := range table {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.Name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s is %v", w.Name, m.Name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end %s is %v, must be positive", w.Name, m.Name, v.Value)
				}
			}
			// The last line must round-trip as the contract's object.
			back, err := parseLastLine(w.Name, res.lastLine())
			if err != nil || len(back.Metrics) != len(table) {
				t.Errorf("%s: last line does not parse back: %v", w.Name, err)
			}
			if _, err := os.Stat(filepath.Join("out", resultFileName(w.Name, 29, traced))); err != nil {
				t.Errorf("%s: result file: %v", w.Name, err)
			}
			if traced {
				if fi, err := os.Stat(filepath.Join("out", w.Name+".trace.json")); err != nil || fi.Size() == 0 {
					t.Errorf("%s: Chrome trace missing or empty: %v", w.Name, err)
				}
			}
		}
	}
	// The layer a workload is about must have done work in its traced pass.
	for workload, metric := range map[string]string{
		"nt3_compute": "nn.conv1d.forward_s", "p1b1_f32": "tensor.matmul_f32_gflops",
		"load_cold": "dataload.cold_read_s", "load_warm": "dataload.cache_hit",
		"comm_unix": "transport.unix.allreduce_large_s", "serve_open": "serve.batch_rows_mean",
		"fleet_closed": "fleet.proxied",
	} {
		raw, err := os.ReadFile(filepath.Join("out", resultFileName(workload, 29, true)))
		if err != nil {
			t.Fatal(err)
		}
		var res result
		if err := jsonUnmarshalStrict(string(raw), &res); err != nil {
			t.Fatal(err)
		}
		if res.Metrics[metric].Value <= 0 {
			t.Errorf("%s: %s is %v in the traced pass", workload, metric, res.Metrics[metric].Value)
		}
	}
	// A result directory is not worse than itself (with one run per
	// workload every row is unresolved, which is not a failure).
	var table bytes.Buffer
	if err := compareDirs(&table, "out", "out"); err != nil {
		t.Errorf("comparing a result directory with itself: %v\n%s", err, table.String())
	}
	// Sized to take under 20 s (8 s alone on two cores); logged, not
	// asserted, because a wall-clock assertion fails on a busy host.
	t.Logf("smoke scale of 7 workloads x 2 passes took %v", time.Since(start).Round(time.Millisecond))
	if left, _ := filepath.Glob(filepath.Join(workRoot, "*")); len(left) != 0 {
		t.Errorf("scratch left behind: %v", left)
	}
}

// chdirTemp runs the test from a temporary directory, as the driver
// runs the benchmark from a checkout: scratch goes to ./.bench_work.
func chdirTemp(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {2000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// 1200 samples support the 99th percentile: 12 lie beyond it.
	xs := make([]float64, 1200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	st := loadStats{latencyMs: xs}
	if got := st.tail(); got != 1188 {
		t.Errorf("tail of 1..1200 = %v, want 1188", got)
	}
	// 150 samples support only the 90th, 15 only the maximum.
	st = loadStats{latencyMs: xs[:150]}
	if got := st.tail(); got != 135 {
		t.Errorf("tail of 1..150 = %v, want 135", got)
	}
	st = loadStats{latencyMs: xs[:15]}
	if got := st.tail(); got != 15 {
		t.Errorf("tail of 1..15 = %v, want 15", got)
	}
	// A window of windowAnswers is the smallest that supports the 99th.
	if tailPercentile(windowAnswers) != 99 || tailPercentile(windowAnswers-1) == 99 {
		t.Errorf("windowAnswers = %d is not the smallest sample with ten beyond its 99th percentile", windowAnswers)
	}
}

// TestBestSample pins the statistic every end-to-end metric reports.
func TestBestSample(t *testing.T) {
	xs := []float64{1.31, 1.02, 1.58, 1.03, 1.02}
	if got := best(xs, "lower"); got != 1.02 {
		t.Errorf("best lower = %v, want 1.02", got)
	}
	if got := best(xs, "higher"); got != 1.58 {
		t.Errorf("best higher = %v, want 1.58", got)
	}
	if got := best(nil, "lower"); got != 0 {
		t.Errorf("best of nothing = %v, want 0", got)
	}
	// reportBest applies each metric's direction.
	c := newRunCtx(&workloads[0], options{}, t.TempDir(), io.Discard)
	for _, v := range xs {
		c.sample("run_s", v)
		c.sample("throughput_rps", 1000*v)
	}
	c.reportBest()
	if got := c.res.Metrics["run_s"].Value; got != 1.02 {
		t.Errorf("run_s = %v, want the smallest sample 1.02", got)
	}
	if got := c.res.Metrics["throughput_rps"].Value; got != 1580 {
		t.Errorf("throughput_rps = %v, want the largest sample 1580", got)
	}
}

// TestHostFactor pins the scale a run's host reference puts on what it
// reports: none without readings or on an undisturbed host, the square
// root of the reference's slow-down otherwise, on times and rates alike.
func TestHostFactor(t *testing.T) {
	if ref, f := hostFactor(nil); ref != referenceCleanMs || f != 1 {
		t.Errorf("no readings: reference %v, factor %v; want %v, 1", ref, f, referenceCleanMs)
	}
	clean := []float64{referenceCleanMs, referenceCleanMs, referenceCleanMs, 9}
	if _, f := hostFactor(clean); f != 1 {
		t.Errorf("undisturbed host: factor %v, want 1", f)
	}
	slow := []float64{4 * referenceCleanMs, 4 * referenceCleanMs, 4 * referenceCleanMs, 4 * referenceCleanMs}
	if ref, f := hostFactor(slow); ref != 4*referenceCleanMs || math.Abs(f-0.5) > 1e-12 {
		t.Errorf("reference four times slower: reference %v, factor %v; want %v, 0.5", ref, f, 4*referenceCleanMs)
	}
	c := newRunCtx(&workloads[0], options{}, t.TempDir(), io.Discard)
	c.res.HostReadingsMs = slow
	c.sample("run_s", 2)
	c.sample("throughput_rps", 1000)
	c.reportBest()
	if got := c.res.Metrics["run_s"].Value; math.Abs(got-1) > 1e-12 {
		t.Errorf("run_s = %v, want 2 s scaled to 1", got)
	}
	if got := c.res.Metrics["throughput_rps"].Value; math.Abs(got-2000) > 1e-9 {
		t.Errorf("throughput_rps = %v, want 1000/s scaled to 2000", got)
	}
}

// TestQuartilesMatchPython pins quartiles to
// statistics.quantiles(values, n=4), the rule the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestPoissonScheduleIsDeterministicPerSeed(t *testing.T) {
	a := poissonSchedule(11, 2000, time.Second)
	b := poissonSchedule(11, 2000, time.Second)
	other := poissonSchedule(29, 2000, time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d is before arrival %d", i, i-1)
		}
	}
	same := len(a) == len(other)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == other[i]
	}
	if same {
		t.Error("seeds 11 and 29 gave the same schedule")
	}
	// 2000 expected arrivals; 5 sigma of a Poisson count is 224.
	if n := len(a); n < 1776 || n > 2224 || a[n-1] >= time.Second {
		t.Errorf("%d arrivals in a second at 2000/s, last at %v", n, a[n-1])
	}
}

// TestOpenLoopTimesFromDue offers a schedule whose requests are all due
// at once. The single generator cannot send them at once, so later
// requests are sent late; their latency must include that lateness,
// which a clock started at send would hide.
func TestOpenLoopTimesFromDue(t *testing.T) {
	chdirTemp(t)
	s := servedModel.smoke()
	b, err := s.benchmark()
	if err != nil {
		t.Fatal(err)
	}
	sv, err := newServed(b, s.dtype, "ckpt", 29)
	if err != nil {
		t.Fatal(err)
	}
	m, err := compiled(b, s.dtype, s.lr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.saveWeights(0, m.WeightsVector()); err != nil {
		t.Fatal(err)
	}
	if err := sv.expect(checkpoint.FileFor("ckpt", b.Spec.Name, 0)); err != nil {
		t.Fatal(err)
	}
	srv, err := sv.newServer()
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(srv)

	const n = 200 // under the server's queue depth: nothing is shed
	st := openLoop(srv, sv, make([]time.Duration, n))
	if st.failed() != 0 || st.attempted+st.skipped != n || len(st.latencyMs) != st.attempted || len(st.lagMs) != st.attempted {
		t.Fatalf("%d attempted, %d skipped, %d answered, %d lags, %d failed of %d",
			st.attempted, st.skipped, len(st.latencyMs), len(st.lagMs), st.failed(), n)
	}
	// Whatever the last request's lateness was, no request sent that
	// late can have a latency from due below it.
	worstLag, worstLatency := quantile(st.lagMs, 1), quantile(st.latencyMs, 1)
	if worstLatency < worstLag {
		t.Errorf("largest latency %.3f ms is under the largest generator lag %.3f ms: latency is not timed from due", worstLatency, worstLag)
	}
	for _, lag := range st.lagMs {
		if lag < 0 || lag > generatorStall.Seconds()*1e3 {
			t.Fatalf("lag %v ms outside [0, %v]", lag, generatorStall)
		}
	}

	// Arrivals the generator reaches more than generatorStall late were
	// due while it was stalled: they are dropped from the schedule, not
	// sent as a burst, and do not count as attempted.
	due := make([]time.Duration, n)
	for i := 0; i < n/2; i++ {
		due[i] = -5 * generatorStall
	}
	st = openLoop(srv, sv, due)
	if st.skipped < n/2 || st.attempted+st.skipped != n || st.failed() != 0 || len(st.latencyMs) != st.attempted {
		t.Errorf("%d skipped, %d attempted, %d answered, %d failed; want at least %d skipped and the rest answered",
			st.skipped, st.attempted, len(st.latencyMs), st.failed(), n/2)
	}

	// And a wrong answer, an error and a late answer each count as failed.
	var book loadStats
	good := sv.want[0][0]
	book.account(sv, answer{epoch: 0, row: 0, pred: good, latency: time.Millisecond})
	book.account(sv, answer{epoch: 0, row: 1, pred: good, latency: time.Millisecond})
	book.account(sv, answer{epoch: 0, row: 0, pred: good, latency: (requestDeadlineMs + 1) * time.Millisecond})
	book.account(sv, answer{epoch: 0, row: 0, err: io.EOF, latency: time.Millisecond})
	book.account(sv, answer{epoch: 7, row: 0, pred: good, latency: time.Millisecond})
	if book.wrong != 2 || book.late != 1 || book.errored != 1 || book.failed() != 4 {
		t.Errorf("wrong %d, late %d, errored %d; want 2, 1, 1", book.wrong, book.late, book.errored)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metric{Name: "run_s", Better: "lower", Bound: 0.25, Paired: 0.10}
	higher := metric{Name: "throughput_rps", Better: "higher", Bound: 0.25, Paired: 0.10}
	sum := func(values ...float64) metricSummary {
		q1, q3 := quartiles(values)
		return metricSummary{Median: median(values), Q1: q1, Q3: q3, Values: values, N: len(values)}
	}
	scaled := func(m metricSummary, by ...float64) metricSummary {
		out := make([]float64, len(m.Values))
		for i, v := range m.Values {
			out[i] = v * by[i%len(by)]
		}
		return sum(out...)
	}
	steady := sum(1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00)
	// A host that drifts by 63 % over the set: hopeless by medians, and
	// nothing at all pair by pair, because both sides drift alike.
	drifting := sum(1.00, 1.07, 1.14, 1.21, 1.28, 1.35, 1.42, 1.49, 1.56, 1.63)
	for _, c := range []struct {
		name   string
		m      metric
		a, b   metricSummary
		paired bool
		want   string
	}{
		{"same", lower, steady, steady, false, "unchanged"},
		{"slower", lower, steady, sum(1.3, 1.31, 1.29), false, "worse"},
		{"faster", lower, steady, sum(0.7, 0.71, 0.69), false, "better"},
		{"inside the bound", lower, steady, sum(1.2, 1.21, 1.19), false, "unchanged"},
		{"less throughput", higher, steady, sum(0.7, 0.71, 0.69), false, "worse"},
		{"more throughput", higher, steady, sum(1.3, 1.31, 1.29), false, "better"},
		{"own runs disagree", lower, steady, sum(0.8, 1.0, 1.2, 1.4, 0.7, 1.1, 0.9, 1.3, 1.5, 0.6), false, "unresolved"},
		{"too few runs to know the spread", lower, steady, sum(1.3, 1.3), false, "unresolved"},
		{"one run a side", lower, sum(1.0), sum(2.0), false, "unresolved"},
		{"drift, by medians", lower, drifting, drifting, false, "unresolved"},
		{"drift, in pairs", lower, drifting, scaled(drifting, 1.01, 0.99), true, "unchanged"},
		{"drift, in pairs, 12 % slower", lower, drifting, scaled(drifting, 1.12, 1.13), true, "worse"},
		{"drift, in pairs, 12 % faster", lower, drifting, scaled(drifting, 0.88, 0.87), true, "better"},
		{"drift, in pairs, 12 % less throughput", higher, drifting, scaled(drifting, 0.88, 0.87), true, "worse"},
		{"pairs that disagree", lower, drifting, scaled(drifting, 0.9, 1.1, 1.2, 0.8), true, "unresolved"},
		{"two pairs", lower, sum(1, 1.2), sum(1, 1.2), true, "unresolved"},
	} {
		if _, _, got := verdict(c.m, c.a, c.b, c.paired); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareDirs holds -compare to its exit rules on synthetic result
// files: a regression of a metric the workload was built for fails, one
// of a borrowed metric does not, and a workload present on one side only
// fails whichever side lacks it.
func TestCompareDirs(t *testing.T) {
	write := func(dir, workload string, scale map[string]float64, failed int) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			res := result{Workload: workload, Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]value{}}
			res.Environment.Seed = seed
			for _, m := range endToEnd {
				k := 1.0
				if f, ok := scale[m.Name]; ok {
					k = f
				}
				res.Metrics[m.Name] = value{Value: k * (1 + 0.001*float64(seed)), Unit: m.Unit}
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, resultFileName(workload, seed, false)), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	root := t.TempDir()
	dir := func(name string) string { return filepath.Join(root, name) }
	for _, w := range []string{"nt3_compute", "serve_open"} {
		write(dir("base"), w, nil, 0)
		write(dir("same"), w, nil, 0)
		write(dir("borrowed"), w, map[string]float64{"latency_p50_ms": 2}, 0)
	}
	write(dir("slower"), "nt3_compute", map[string]float64{"run_s": 1.2}, 0)
	write(dir("slower"), "serve_open", nil, 0)
	write(dir("failing"), "nt3_compute", nil, 1)
	write(dir("failing"), "serve_open", nil, 0)
	write(dir("partial"), "nt3_compute", nil, 0)
	for _, c := range []struct {
		a, b string
		ok   bool
	}{
		{"base", "same", true},
		{"base", "slower", false},
		{"slower", "base", true}, // faster is not a failure
		{"base", "failing", false},
		{"base", "partial", false},
		{"partial", "base", false},
	} {
		var out bytes.Buffer
		err := compareDirs(&out, dir(c.a), dir(c.b))
		if (err == nil) != c.ok {
			t.Errorf("-compare %s %s: error %v, want ok=%v\n%s", c.a, c.b, err, c.ok, out.String())
		}
	}
	// latency_p50_ms doubled: judged on the serving workload, where it
	// fails, and only shown on the training workload.
	var out bytes.Buffer
	if err := compareDirs(&out, dir("base"), dir("borrowed")); err == nil {
		t.Errorf("a doubled latency on serve_open passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "borrowed, not judged") || !strings.Contains(out.String(), "1 worse") {
		t.Errorf("want one judged worse row and the training workload's row marked borrowed:\n%s", out.String())
	}
}
