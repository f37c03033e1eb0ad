package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"candle/internal/candle"
	"candle/internal/core"
	"candle/internal/csvio"
	"candle/internal/launch"
	"candle/internal/mpi"
	"candle/internal/sim"
	"candle/internal/trace"
)

// exitRankFailed is `run`'s exit status for a typed rank failure — the
// launcher's signal that elastic recovery applies (EX_TEMPFAIL).
const exitRankFailed = 75

// runOpts is what `run` takes beyond the training group: the mode
// switch, the outputs, and the distributed-worker settings. A non-empty
// -rendezvous makes this process one worker of a multi-process world
// (normally under `candle launch`, which sets the rest).
type runOpts struct {
	trainFlags
	Mode, Machine string
	Timeline, Out string
	Power         string
	Rendezvous    string
	RendezvousNet string
	LocalRanks    int
	ProcIndex     int
	Generation    int
	ServeRdv      bool
}

// runCmd executes one CANDLE benchmark, either for real (ranks as
// goroutines training actual models on generated data) or simulated at
// paper scale on the Summit/Theta machine models.
//
//	candle run -bench NT3 -mode real -ranks 4 -epochs 16
//	candle run -bench NT3 -mode sim -machine summit -ranks 384 -loader chunked
//	candle run -bench P1B3 -mode sim -ranks 48 -batch 363 -epochs 1
//	candle run -bench NT3 -ranks 384 -timeline fig7b.json -power fig7a.csv
func runCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	o := runOpts{trainFlags: newTrainFlags()}
	o.trainFlags.register(fs)
	fs.StringVar(&o.Mode, "mode", "sim", "real (in-process training) or sim (paper-scale model)")
	fs.StringVar(&o.Machine, "machine", "summit", "sim machine: summit or theta")
	fs.StringVar(&o.Timeline, "timeline", "", "write a Chrome-trace timeline of the run to this file (sim: the first 8 ranks)")
	fs.StringVar(&o.Power, "power", "", "write the sim run's power-monitor trace here as CSV: t_s,watts, plus node_W,cpu_W,mem_W on theta")
	fs.StringVar(&o.Out, "out", "", "write the per-rank result JSON of the real run here (what candle launch collects from each worker)")
	fs.StringVar(&o.Rendezvous, "rendezvous", "", "rendezvous address: join a multi-process world as one worker (real mode; -ranks is then the total world size)")
	fs.StringVar(&o.RendezvousNet, "rendezvous-network", "", "rendezvous socket family: unix or tcp; empty derives it from -transport")
	fs.IntVar(&o.LocalRanks, "local-ranks", 0, "ranks this worker process hosts (distributed real mode)")
	fs.IntVar(&o.ProcIndex, "proc-index", 0, "this worker's index in the launch group (distributed real mode)")
	fs.IntVar(&o.Generation, "generation", 0, "elastic world generation stamp from the launcher (distributed real mode)")
	fs.BoolVar(&o.ServeRdv, "serve-rendezvous", false, "also host the rendezvous round at -rendezvous (the hand-run form: set on exactly one worker)")
	return func(stdout, stderr io.Writer) error {
		if o.Mode != "sim" && o.Mode != "real" {
			return fmt.Errorf("unknown mode %q", o.Mode)
		}
		var wrong []string
		fs.Visit(func(f *flag.Flag) {
			if m, ok := modeOnly[f.Name]; ok && m != o.Mode {
				wrong = append(wrong, "-"+f.Name)
			}
		})
		if len(wrong) > 0 {
			return &exitError{2, fmt.Errorf("%s not used by -mode %s", strings.Join(wrong, ", "), o.Mode)}
		}
		if o.Mode == "sim" {
			return o.runSim(stdout)
		}
		return o.runReal(stdout)
	}
}

// modeOnly maps each `run` flag that one mode alone reads to that
// mode; the other mode refuses it rather than ignore it.
var modeOnly = map[string]string{
	"out": "real", "rendezvous": "real", "rendezvous-network": "real", "local-ranks": "real",
	"proc-index": "real", "generation": "real", "serve-rendezvous": "real",
	"power": "sim",
}

func (o *runOpts) runSim(stdout io.Writer) error {
	cfg, err := sim.NewConfig(o.Bench, o.Machine, o.Loader)
	if err != nil {
		return err
	}
	cfg.Ranks, cfg.Epochs, cfg.Batch = o.Ranks, o.Epochs, o.Batch
	if o.Weak {
		cfg.Scaling = sim.Weak
	}
	if o.Timeline != "" {
		cfg.Timeline = trace.NewTimeline()
	}
	r, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	b := r.Config.Bench
	fmt.Fprintf(stdout, "%s on %s, %d workers, %s scaling, batch %d, %s loader\n",
		o.Bench, r.Config.Machine.Name, o.Ranks, r.Config.Scaling, r.Batch, r.Config.Loader)
	fmt.Fprintf(stdout, "  epochs/rank        %d (%d steps/epoch)\n", r.EpochsPerRank, r.StepsPerEpoch)
	fmt.Fprintf(stdout, "  data loading       %10.2f s\n", r.LoadTime)
	fmt.Fprintf(stdout, "  broadcast          %10.2f s\n", r.BroadcastTime)
	fmt.Fprintf(stdout, "  training           %10.2f s  (%.2f s/epoch)\n", r.TrainTime, r.TimePerEpoch)
	fmt.Fprintf(stdout, "  evaluation         %10.2f s\n", r.EvalTime)
	fmt.Fprintf(stdout, "  total              %10.2f s\n", r.TotalTime)
	if b.Classification {
		fmt.Fprintf(stdout, "  accuracy           %10.4f\n", r.Accuracy)
	}
	if b.LossAmp > 0 {
		fmt.Fprintf(stdout, "  loss               %10.4f\n", r.Loss)
	}
	fmt.Fprintf(stdout, "  avg device power   %10.1f W\n", r.AvgPowerW)
	fmt.Fprintf(stdout, "  energy             %10.1f kJ/device, %.1f kJ total\n", r.EnergyJ/1e3, r.TotalEnergyJ/1e3)
	if cfg.Timeline != nil {
		if err := writeTimeline(cfg.Timeline, o.Timeline, stdout); err != nil {
			return err
		}
	}
	if o.Power != "" {
		pt := core.PowerTrace(r)
		if err := os.WriteFile(o.Power, []byte(pt.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "power: %d samples -> %s\n", len(pt.Rows), o.Power)
	}
	return nil
}

// writeTimeline writes tl as a Chrome trace to path and says so.
func writeTimeline(tl *trace.Timeline, path string, stdout io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "timeline: %d events -> %s\n", tl.Len(), path)
	return nil
}

// rankSummary is one rank's result as reported across the process
// boundary.
type rankSummary struct {
	Rank             int     `json:"rank"`
	Epochs           int     `json:"epochs"`
	FinalLoss        float64 `json:"final_loss"`
	TrainAccuracy    float64 `json:"train_accuracy"`
	TestAccuracy     float64 `json:"test_accuracy"`
	WeightsChecksum  float64 `json:"weights_checksum"`
	AllreduceCalls   int     `json:"allreduce_calls"`
	ResumedFromEpoch int     `json:"resumed_from_epoch"`
}

// workerResult is what `run -out` writes before exiting; on a rank
// failure only the failure fields are populated.
type workerResult struct {
	Proc       int           `json:"proc"`
	Gen        int           `json:"gen"`
	Ranks      []rankSummary `json:"ranks,omitempty"`
	FailedRank int           `json:"failed_rank"`
	FailedOp   string        `json:"failed_op,omitempty"`
	// Err is the error, or on a rank failure its originating cause.
	Err string `json:"err,omitempty"`
}

// runReal trains, then reports through stdout, the -out file and the
// exit status: a typed rank failure exits 75 with the failed rank in
// the result file.
func (o *runOpts) runReal(stdout io.Writer) error {
	res := workerResult{Proc: o.ProcIndex, Gen: o.Generation, FailedRank: -1}
	err := o.train(&res, stdout)
	if err != nil {
		res.Err = err.Error()
		var rf *mpi.RankFailedError
		if errors.As(err, &rf) {
			res.FailedRank, res.FailedOp, res.Err = rf.Rank, rf.Op, fmt.Sprint(rf.Cause)
			err = &exitError{exitRankFailed, err}
		}
	}
	if o.Out != "" {
		b, _ := json.Marshal(res)
		if werr := os.WriteFile(o.Out, b, 0o644); werr != nil && err == nil {
			err = fmt.Errorf("result write: %w", werr)
		}
	}
	return err
}

func (o *runOpts) train(res *workerResult, stdout io.Writer) error {
	b, err := o.benchmark()
	if err != nil {
		return err
	}
	// Real mode resolves the engine through the csvio registry, so any
	// registered engine — including internal/dataload's "sharded" —
	// is a valid -loader value.
	reader, err := csvio.ByName(o.Loader)
	if err != nil {
		return err
	}
	faults, err := parseFault(o.Fault)
	if err != nil {
		return err
	}
	// Hosts write the dataset, workers read it: a worker joining a
	// round someone else serves (the launcher, or the -serve-rendezvous
	// worker) must be pointed at the CSVs that host prepared.
	dataDir := o.DataDir
	if joining := o.Rendezvous != "" && !o.ServeRdv; joining {
		if dataDir == "" {
			return &exitError{2, errors.New("a worker joining -rendezvous only reads the dataset: -data-dir must name the directory the round's host prepared")}
		}
	} else {
		var cleanup func()
		if dataDir, cleanup, err = prepareData(b, dataDir, o.Seed); err != nil {
			return err
		}
		defer cleanup()
	}
	epochs := o.Epochs
	if epochs <= 0 {
		epochs = 16
	}
	var tl *trace.Timeline
	if o.Timeline != "" {
		tl = trace.NewTimeline()
	}
	cfg := candle.RunConfig{
		Ranks: o.Ranks, TotalEpochs: epochs, WeakScaling: o.Weak, Batch: o.Batch, LR: o.LR,
		DType:  o.DType,
		Engine: o.Loader, CacheDir: o.CacheDir,
		DataDir: dataDir, Seed: o.Seed, ScaleLR: o.ScaleLR,
		ParameterServer: o.PS, Timeline: tl, Overlap: o.Overlap,
		Faults: faults, Elastic: o.Elastic,
		CheckpointDir: o.CkptDir, Resume: o.CkptDir != "" && (o.Elastic || o.Generation > 0),
		Transport: o.Transport, Rendezvous: o.Rendezvous,
		RendezvousNetwork: o.RendezvousNet, LocalRanks: o.LocalRanks,
		ProcIndex: o.ProcIndex, Generation: o.Generation,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if o.ServeRdv {
		// The hand-run two-terminal form: this worker also hosts the
		// rendezvous round the others (and itself) join. Under
		// candle launch the launcher serves instead.
		if o.Rendezvous == "" {
			return fmt.Errorf("-serve-rendezvous needs -rendezvous")
		}
		if o.LocalRanks <= 0 || o.Ranks%o.LocalRanks != 0 {
			return fmt.Errorf("-serve-rendezvous derives the proc count from -ranks/-local-ranks; %d ranks do not split into %d-rank workers", o.Ranks, o.LocalRanks)
		}
		network := o.RendezvousNet
		if network == "" {
			network = o.Transport
		}
		srv, err := launch.Serve(launch.ServerConfig{
			Network: network, Addr: o.Rendezvous,
			Procs: o.Ranks / o.LocalRanks, Gen: o.Generation,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
	}
	out, err := b.Run(cfg)
	if err != nil {
		return err
	}
	for _, r := range out.Ranks {
		res.Ranks = append(res.Ranks, rankSummary{
			Rank: r.Rank, Epochs: r.Epochs,
			FinalLoss: r.FinalLoss, TrainAccuracy: r.TrainAccuracy, TestAccuracy: r.TestAccuracy,
			WeightsChecksum: r.WeightsChecksum, AllreduceCalls: r.AllreduceCalls,
			ResumedFromEpoch: r.ResumedFromEpoch,
		})
	}
	for _, f := range out.Failures {
		fmt.Fprintf(stdout, "  rank %d failed in %s on a %d-rank world; restarted on %d ranks\n",
			f.Rank, f.Op, f.WorldSize, f.WorldSize-1)
	}
	if tl != nil {
		if err := writeTimeline(tl, o.Timeline, stdout); err != nil {
			return err
		}
	}
	r := out.Root
	if o.Rendezvous != "" {
		lo := out.Ranks[0].Rank
		fmt.Fprintf(stdout, "worker %d: ranks %d..%d of a %d-rank world over %s\n",
			o.ProcIndex, lo, lo+len(out.Ranks)-1, o.Ranks, o.Transport)
	}
	fmt.Fprintf(stdout, "%s (real, scaled dataset %dx%d), %d ranks, %d epochs/rank, %s loader\n",
		o.Bench, b.Spec.TrainSamples, b.Spec.Features, len(out.Ranks), r.Epochs, reader.Name())
	fmt.Fprintf(stdout, "  data loading   %8.4f s\n", r.LoadSeconds)
	fmt.Fprintf(stdout, "  training       %8.4f s\n", r.TrainSeconds)
	fmt.Fprintf(stdout, "  evaluation     %8.4f s\n", r.EvalSeconds)
	fmt.Fprintf(stdout, "  total          %8.4f s\n", r.TotalSeconds)
	fmt.Fprintf(stdout, "  final loss     %8.4f   train acc %.3f   test acc %.3f\n",
		r.FinalLoss, r.TrainAccuracy, r.TestAccuracy)
	fmt.Fprintf(stdout, "  allreduce ops  %d\n", r.AllreduceCalls)
	return nil
}
