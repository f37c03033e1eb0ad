package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"candle/internal/advisor"
	"candle/internal/hpc"
)

// adviseOpts collects `advise`'s flag values.
type adviseOpts struct {
	bench      string
	machine    string
	objective  string
	minAcc     float64
	maxLoss    float64
	maxWorkers int
	epochs     int
	scaleBatch bool
	all        bool
	deadline   time.Duration
}

// adviseCmd recommends a run configuration: the fewest seconds or
// joules that still meet an accuracy floor, as the paper-calibrated
// performance/power models predict them.
//
//	candle advise -bench NT3 -min-accuracy 0.99
//	candle advise -bench NT3 -objective energy -min-accuracy 0.99
//	candle advise -bench P1B3 -scale-batch -min-accuracy 0.64 -epochs 1
//	candle advise -bench NT3 -min-accuracy 0.99 -deadline 300s
func adviseCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var o adviseOpts
	fs.StringVar(&o.bench, "bench", "NT3", simBenchUsage)
	fs.StringVar(&o.machine, "machine", "summit", "summit or theta")
	fs.StringVar(&o.objective, "objective", "time", "time, energy, or edp")
	fs.Float64Var(&o.minAcc, "min-accuracy", 0, "accuracy floor (classification)")
	fs.Float64Var(&o.maxLoss, "max-loss", 0, "loss ceiling (P1B1)")
	fs.IntVar(&o.maxWorkers, "max-workers", 0, "cap on workers (0 = 384)")
	fs.IntVar(&o.epochs, "epochs", 0, "total epoch budget (0 = default)")
	fs.BoolVar(&o.scaleBatch, "scale-batch", false, "also sweep linear/sqrt/cbrt batch scaling")
	fs.BoolVar(&o.all, "all", false, "print every candidate, not just the winner")
	fs.DurationVar(&o.deadline, "deadline", 0, "reject plans slower than this (e.g. 300s; 0 = none)")
	return func(stdout, stderr io.Writer) error { return o.run(stdout) }
}

func (o *adviseOpts) run(stdout io.Writer) error {
	var obj advisor.Objective
	switch o.objective {
	case "time":
		obj = advisor.MinTime
	case "energy":
		obj = advisor.MinEnergy
	case "edp":
		obj = advisor.MinEDP
	default:
		return fmt.Errorf("unknown objective %q", o.objective)
	}
	m, err := hpc.ByName(o.machine)
	if err != nil {
		return err
	}
	best, candidates, err := advisor.Recommend(advisor.Request{
		Benchmark: o.bench, Machine: m, Objective: obj,
		MinAccuracy: o.minAcc, MaxLoss: o.maxLoss,
		MaxWorkers: o.maxWorkers, Epochs: o.epochs, ScaleBatch: o.scaleBatch,
		DeadlineS: o.deadline.Seconds(),
	})
	if o.all {
		for _, c := range candidates {
			fmt.Fprintf(stdout, "  candidate: %s\n", c)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s (analytic models, %s, %s", o.bench, m.Name, obj)
	if o.minAcc > 0 {
		fmt.Fprintf(stdout, ", accuracy ≥ %.3f", o.minAcc)
	}
	if o.maxLoss > 0 {
		fmt.Fprintf(stdout, ", loss ≤ %.3g", o.maxLoss)
	}
	if o.deadline > 0 {
		fmt.Fprintf(stdout, ", deadline %s", o.deadline)
	}
	fmt.Fprintln(stdout, "):")
	fmt.Fprintf(stdout, "  recommended: %s\n", best)
	return nil
}
