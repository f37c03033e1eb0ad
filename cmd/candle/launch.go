package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"candle/internal/candle"
	"candle/internal/launch"
	"candle/internal/mpi"
	"candle/internal/proc"
)

// launcher is `launch`'s state: the training group it forwards to its
// workers, its own flags, and the process plumbing.
type launcher struct {
	trainFlags
	Procs     int
	ChaosKill int
	Out       string
	Timeout   time.Duration

	workerArgs     func() []string // the training group, forwarded verbatim
	exe            string
	scratch        string // per-worker result files
	sigc           <-chan os.Signal
	stdout, stderr io.Writer
}

// launchCmd runs one CANDLE benchmark across several OS processes: it
// serves the rendezvous round, spawns N `candle run` workers that each
// host a contiguous slice of the world's ranks, and aggregates their
// results. With -elastic, a worker lost to a rank failure — or to a
// plain SIGKILL of its process — costs its ranks: the survivors are
// respawned as the next world generation, resuming from the checkpoint
// directory.
//
//	candle launch -bench NT3 -procs 2 -ranks 4 -epochs 16
//	candle launch -bench NT3 -procs 2 -ranks 4 -transport tcp -elastic \
//	    -checkpoint-dir /tmp/ckpt -inject-fault 3@8
func launchCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	l := launcher{trainFlags: newTrainFlags()}
	l.Ranks, l.Epochs, l.Transport = 4, 16, "unix"
	l.trainFlags.register(fs)
	l.workerArgs = forwarder(fs)
	fs.IntVar(&l.Procs, "procs", 2, "worker processes to spawn (-ranks must divide evenly over them)")
	fs.IntVar(&l.ChaosKill, "chaos-kill", -1, "SIGKILL this worker process once the first checkpoint lands (-1 = off)")
	fs.StringVar(&l.Out, "out", "", "write the aggregated result JSON here")
	fs.DurationVar(&l.Timeout, "timeout", 5*time.Minute, "per-generation deadline")
	return func(stdout, stderr io.Writer) error {
		l.stdout, l.stderr = stdout, stderr
		return l.run()
	}
}

// launchResult is the aggregated run the launcher prints and writes.
type launchResult struct {
	Bench       string        `json:"bench"`
	WorldRanks  int           `json:"world_ranks"`
	Procs       int           `json:"procs"`
	Transport   string        `json:"transport"`
	Generations int           `json:"generations"`
	Failures    []failureInfo `json:"failures,omitempty"`
	Ranks       []rankSummary `json:"ranks"`
}

type failureInfo struct {
	Rank      int `json:"rank"`
	Proc      int `json:"proc"`
	WorldSize int `json:"world_size"`
}

func (l *launcher) run() error {
	if l.Procs <= 0 || l.Ranks <= 0 || l.Ranks%l.Procs != 0 {
		return fmt.Errorf("%d ranks do not divide evenly over %d procs", l.Ranks, l.Procs)
	}
	if l.Transport != "unix" && l.Transport != "tcp" {
		return fmt.Errorf("transport %q: multi-process launch needs unix or tcp", l.Transport)
	}
	if l.ChaosKill >= l.Procs {
		return fmt.Errorf("chaos-kill proc %d outside [0,%d)", l.ChaosKill, l.Procs)
	}
	b, err := l.benchmark()
	if err != nil {
		return err
	}
	// The launcher hosts the round, so it prepares the shared dataset
	// once; its workers only read.
	var cleanup func()
	if l.DataDir, cleanup, err = prepareData(b, l.DataDir, l.Seed); err != nil {
		return err
	}
	defer cleanup()
	if l.exe, err = os.Executable(); err != nil {
		return err
	}
	if l.scratch, err = os.MkdirTemp("", "candle-launch-res-"); err != nil {
		return err
	}
	defer os.RemoveAll(l.scratch)
	var stopSig func()
	l.sigc, stopSig = notifyTerminate()
	defer stopSig()

	// Elasticity is the launcher's: the workers it spawns run one
	// generation each and report a rank failure through exit 75. Each
	// worker process is one group of the elastic driver.
	totalRanks, elastic := l.Ranks, l.Elastic
	l.Elastic = false
	ranksPerProc := totalRanks / l.Procs
	groups := make([]int, l.Procs)
	for i := range groups {
		groups[i] = ranksPerProc
	}
	ranks, failures, err := candle.Elastic(groups, elastic, func(groups []int, gen int) ([]rankSummary, error) {
		if gen > 0 {
			fmt.Fprintf(l.stdout, "generation %d: respawning %d surviving procs\n", gen, len(groups))
			// Scripted faults were consumed by the dead generation;
			// chaos strikes only once.
			l.Fault = ""
			l.ChaosKill = -1
		}
		l.Ranks = len(groups) * ranksPerProc
		return l.runGeneration(len(groups), ranksPerProc, gen)
	})
	if err != nil {
		return err
	}
	infos := make([]failureInfo, len(failures))
	for i, f := range failures {
		infos[i] = failureInfo{Rank: f.Rank, Proc: f.Group, WorldSize: f.WorldSize}
	}
	return l.report(totalRanks, ranks, len(failures)+1, infos)
}

// runGeneration serves one rendezvous round and shepherds one set of
// worker processes through it. A worker's exit-75 result file becomes
// the generation's *mpi.RankFailedError, for the elastic driver to
// drop the hosting proc.
func (l *launcher) runGeneration(procs, ranksPerProc, gen int) ([]rankSummary, error) {
	srv, err := launch.Serve(launch.ServerConfig{Network: l.Transport, Procs: procs, Gen: gen, Timeout: l.Timeout})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	type exit struct {
		proc int
		err  error
	}
	exits := make(chan exit, procs)
	g := proc.New(l.stdout, l.stderr)
	g.OnExit = func(slot string, err error) {
		p, _ := strconv.Atoi(slot)
		exits <- exit{p, err}
	}
	// Whichever way this generation ends, no worker outlives it.
	defer g.Stop(os.Kill)
	resPaths := make([]string, procs)
	for p := range resPaths {
		resPaths[p] = filepath.Join(l.scratch, fmt.Sprintf("gen%d-proc%d.json", gen, p))
		argv := append([]string{l.exe, "run", "-mode=real"}, l.workerArgs()...)
		argv = append(argv,
			"-rendezvous="+srv.Addr(), "-rendezvous-network="+l.Transport,
			"-local-ranks="+strconv.Itoa(ranksPerProc), "-proc-index="+strconv.Itoa(p),
			"-generation="+strconv.Itoa(gen), "-out="+resPaths[p])
		if _, err := g.Start(strconv.Itoa(p), argv); err != nil {
			return nil, fmt.Errorf("spawn worker %d: %w", p, err)
		}
	}
	if l.ChaosKill >= 0 && l.ChaosKill < procs {
		go chaosKill(g, strconv.Itoa(l.ChaosKill), l.CkptDir)
	}

	// Collect every worker; a rank failure beats any other error.
	var failed, other error
	for n := 0; n < procs; n++ {
		select {
		case x := <-exits:
			var xe *exec.ExitError
			switch {
			case x.err == nil:
			case errors.As(x.err, &xe) && xe.ExitCode() == exitRankFailed:
				if wr := readResult(resPaths[x.proc]); wr != nil && wr.FailedRank >= 0 && failed == nil {
					failed = fmt.Errorf("generation %d: %w", gen,
						&mpi.RankFailedError{Rank: wr.FailedRank, Op: wr.FailedOp, Cause: errors.New(wr.Err)})
				}
			case other == nil:
				// A process that died without reporting (SIGKILL chaos,
				// OOM) shows up through its survivors' peer-loss
				// reports instead.
				other = fmt.Errorf("generation %d: worker %d: %w", gen, x.proc, x.err)
			}
		case <-l.sigc:
			return nil, errors.New("terminated by signal during launch")
		}
	}
	if failed != nil {
		return nil, failed
	}
	if other != nil {
		return nil, other
	}
	var all []rankSummary
	for p, path := range resPaths {
		wr := readResult(path)
		if wr == nil {
			return nil, fmt.Errorf("generation %d: worker %d exited clean but left no result", gen, p)
		}
		all = append(all, wr.Ranks...)
	}
	return all, nil
}

// chaosKill SIGKILLs one worker process mid-run: once the first
// checkpoint lands when checkpointing is on (so elastic recovery has
// something to resume from), otherwise after a grace period that lets
// the world form. It gives up when the generation is torn down.
func chaosKill(g *proc.Group, slot, ckptDir string) {
	for start := time.Now(); ; {
		select {
		case <-g.Done():
			return
		case <-time.After(5 * time.Millisecond):
		}
		if ckptDir == "" && time.Since(start) >= 500*time.Millisecond {
			break
		}
		if ents, _ := os.ReadDir(ckptDir); len(ents) > 0 {
			break
		}
	}
	g.Signal(slot, os.Kill)
}

func readResult(path string) *workerResult {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var wr workerResult
	if err := json.Unmarshal(b, &wr); err != nil {
		return nil
	}
	return &wr
}

func (l *launcher) report(totalRanks int, ranks []rankSummary, gens int, failures []failureInfo) error {
	res := launchResult{
		Bench: l.Bench, WorldRanks: totalRanks, Procs: l.Procs, Transport: l.Transport,
		Generations: gens, Failures: failures, Ranks: ranks,
	}
	fmt.Fprintf(l.stdout, "%s: %d ranks over %d procs (%s), %d generation(s)\n",
		l.Bench, totalRanks, l.Procs, l.Transport, gens)
	for _, f := range failures {
		fmt.Fprintf(l.stdout, "  rank %d (proc %d) lost from a %d-rank world\n", f.Rank, f.Proc, f.WorldSize)
	}
	if len(ranks) > 0 {
		r := ranks[0]
		fmt.Fprintf(l.stdout, "  root: %d epochs, loss %.4f, train acc %.3f, weights checksum %.6f\n",
			r.Epochs, r.FinalLoss, r.TrainAccuracy, r.WeightsChecksum)
	}
	if l.Out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(l.Out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(l.stdout, "  result -> %s\n", l.Out)
	}
	return nil
}
