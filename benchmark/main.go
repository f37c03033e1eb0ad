// Command benchmark is the repository's one benchmark: seven named
// workloads, the end-to-end metrics a user of the system sees, and a
// separate traced pass that gives the per-layer numbers. README.md in
// this directory says why each workload exists and how to read the
// output; BENCHMARK.json at the repository root is the contract.
//
//	go run ./benchmark -seed 11 -out results/          every workload, one child process each
//	go run ./benchmark -seed 11 -out results/ -trace 1 the traced pass (per-layer metrics, Chrome traces)
//	go run ./benchmark -workload load_cold -seed 11    one workload in this process
//	go run ./benchmark -compare a/ b/                  verdict per workload and metric
//	go run ./benchmark -describe > BENCHMARK.json      the contract, from the tables in spec.go
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long the timed
// part of one workload run lasts.
const defaultSeconds = 13

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string
	runs     int
	smoke    bool
	against  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 11, "drives every generated input: CSV contents, request rows, arrival schedule")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed part of a workload run")
	traced := flag.Int("trace", 0, "1: the traced pass, printing per-layer metrics in place of end-to-end ones")
	flag.StringVar(&o.out, "out", "", "directory for result files and Chrome traces (default: none written)")
	flag.IntVar(&o.runs, "runs", 1, "suite only: runs per workload, on seeds seed, seed+1, ...")
	flag.BoolVar(&o.smoke, "smoke", false, "test scale: every code path, tiny inputs, no targets")
	flag.StringVar(&o.against, "against", "", "suite only: another commit's benchmark binary, or \"self\"; every run is paired with the same run of it, into <out>/a (this one) and <out>/b")
	compare := flag.Bool("compare", false, "compare two -out directories: benchmark -compare a/ b/")
	descr := flag.Bool("describe", false, "print BENCHMARK.json as the tables in spec.go define it")
	flag.Parse()
	o.traced = *traced == 1

	var err error
	switch {
	case *descr:
		_, err = os.Stdout.Write(describe())
	case *compare && flag.NArg() == 2:
		err = compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *compare:
		err = errors.New("-compare takes two result directories")
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	default:
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if err := checkProcs(); err != nil {
		return err
	}
	if o.workload == "" {
		return suite(o)
	}
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runWorkload(w, o, os.Stdout)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	fmt.Println(res.lastLine())
	return nil
}

// checkProcs refuses a GOMAXPROCS the host cannot back and warns at 1,
// the setting that hid the multi-worker kernel path in every earlier
// artifact of this repository.
func checkProcs() error {
	procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU()
	if procs > cpus {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this host; unset it", procs, cpus)
	}
	if procs == 1 {
		fmt.Fprintln(os.Stderr, "benchmark: warning: GOMAXPROCS=1: kernel workers, rank goroutines and the overlap coordinator will not run in parallel")
	}
	return nil
}

// workRoot is where scratch files go: inside the checkout the command
// runs from, never the system temp directory.
const workRoot = ".bench_work"

// runWorkload runs one workload in this process and returns its
// result, already written to out when out is set.
func runWorkload(w *workload, o options, log io.Writer) (*result, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	restore := localTemp(dir)
	defer restore()

	c := newRunCtx(w, o, dir, log)
	if err := w.run(c); err != nil {
		return nil, err
	}
	c.finish()
	c.printMetrics()
	return c.res, c.writeFiles()
}

// localTemp points os.TempDir at the run's scratch directory, so the
// unix sockets the launch and transport layers create stay inside the
// checkout. A socket path must fit in 108 bytes; when the checkout sits
// too deep for that, the system temp directory is kept (sockets only —
// every file the benchmark itself writes is under dir either way).
func localTemp(dir string) (restore func()) {
	tmp := filepath.Join(dir, "t")
	const longestSocketSuffix = len("/candle-sock-4294967295/l.sock")
	if len(tmp)+longestSocketSuffix > 100 || os.MkdirAll(tmp, 0o755) != nil {
		return func() {}
	}
	old, had := os.LookupEnv("TMPDIR")
	os.Setenv("TMPDIR", tmp)
	return func() {
		if had {
			os.Setenv("TMPDIR", old)
		} else {
			os.Unsetenv("TMPDIR")
		}
	}
}

// printMetrics prints every metric of the pass by name with its unit,
// then the output checks.
func (c *runCtx) printMetrics() {
	table := endToEnd
	if c.traced {
		table = perLayer
	}
	c.logf("%s seed %d: %d attempted, %d failed", c.w.Name, c.seed, c.res.Attempted, c.res.Failed)
	if !c.traced {
		c.logf("  host reference %.3f ms (lower quartile of %d readings; the scale is anchored at %.1f ms): times x %.4f, rates / %.4f",
			c.res.HostReferenceMs, len(c.res.HostReadingsMs), referenceCleanMs, c.res.HostFactor, c.res.HostFactor)
	}
	for _, m := range table {
		v := c.res.Metrics[m.Name]
		if samples := c.res.Samples[m.Name]; len(samples) > 1 {
			q1, q3 := quartiles(samples)
			c.logf("  %-36s %14.6g %-8s best of %d as measured %.6g, median %.6g, quartiles %.6g .. %.6g",
				m.Name, v.Value, v.Unit, len(samples), best(samples, m.Better), median(samples), q1, q3)
			continue
		}
		c.logf("  %-36s %14.6g %s", m.Name, v.Value, v.Unit)
	}
	for _, ch := range c.res.Checks {
		status := "ok"
		if !ch.OK {
			status = "FAILED"
		}
		c.logf("  check %-34s %s  (%s)", ch.Name, status, ch.Detail)
	}
}

// suite runs every workload in a child process of its own — the tensor
// worker budget is process-global and heap state leaks between runs —
// and prints the best-of-run values' medians over the runs. With
// -against, every run is made twice, back to back, by this binary and by
// the other, alternating which goes first, and the two sets are
// compared pair by pair at the end.
func suite(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if o.runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", o.runs)
	}
	sides := []struct{ binary, out string }{{self, o.out}}
	if o.against != "" {
		if o.out == "" {
			return errors.New("-against needs -out: the two sets go to <out>/a and <out>/b")
		}
		other := o.against
		if other == "self" {
			other = self
		}
		sides = []struct{ binary, out string }{{self, filepath.Join(o.out, "a")}, {other, filepath.Join(o.out, "b")}}
	}
	env := readEnvironment(o.seed, o.traced)
	all := make([][]*result, len(sides))
	for _, w := range workloads {
		for i := 0; i < o.runs; i++ {
			seed := o.seed + int64(i)
			for k := range sides {
				side := (k + i) % len(sides) // alternate which side runs first
				cmd := exec.Command(sides[side].binary,
					"-workload", w.Name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(btoi(o.traced)),
					"-out", sides[side].out, fmt.Sprintf("-smoke=%v", o.smoke))
				var stdout bytes.Buffer
				cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				res, err := parseLastLine(w.Name, stdout.String())
				if err != nil {
					return err
				}
				res.Environment = env
				res.Environment.Seed = seed
				all[side] = append(all[side], res)
			}
		}
	}
	correct := true
	for k, side := range sides {
		sum := summarise(all[k])
		if len(sides) > 1 {
			fmt.Printf("\n== %s (%s)\n", side.out, side.binary)
		}
		sum.print(os.Stdout)
		if side.out != "" {
			if err := sum.write(filepath.Join(side.out, "summary.json")); err != nil {
				return err
			}
		}
		correct = correct && sum.allCorrect()
	}
	if !correct {
		return errors.New("some output checks failed")
	}
	if len(sides) > 1 {
		fmt.Println()
		return compareDirs(os.Stdout, sides[0].out, sides[1].out)
	}
	return nil
}

func parseLastLine(workload, stdout string) (*result, error) {
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	res := &result{Workload: workload}
	if err := jsonUnmarshalStrict(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return res, nil
}
