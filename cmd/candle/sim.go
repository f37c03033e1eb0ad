package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"candle/internal/scenario"
)

// simCmd is the seeded scenario simulator: it draws a full run
// configuration from a seed — pilot, ranks, engine, precision, overlap,
// parameter server, fault plan, checkpoint cadence — executes it under
// a deadlock watchdog, and checks machine-verified invariants
// (determinism, checkpoint import/export, fault outcomes, and the
// overlap, dtype, and transport equivalences). Every failure prints a
// one-line repro. Exit 0 = every seed passed, 1 = an invariant failed,
// 2 = bad command line.
//
//	candle sim -seed 42 -verbose          # replay one seed, narrated
//	candle sim -seeds 25                  # sweep seeds 1..25, fail fast
//	candle sim -seed 42 -shrink           # minimize a failing fault plan
//	candle sim -seeds 50 -check dtype     # one invariant family only
func simCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	seed := fs.Int64("seed", 1, "scenario seed to check")
	seeds := fs.Int("seeds", 0, "sweep this many consecutive seeds starting at -start-seed (0 = just -seed)")
	startSeed := fs.Int64("start-seed", 1, "first seed of a -seeds sweep")
	check := fs.String("check", "all", "invariant selection: all, determinism, overlap, dtype, import-export, transport, faults")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-run watchdog timeout before declaring a deadlock")
	shrink := fs.Bool("shrink", false, "on failure, bisect the fault plan to a minimal failing scenario")
	verbose := fs.Bool("verbose", false, "narrate every run")
	return func(stdout, stderr io.Writer) error {
		checks, err := scenario.ParseChecks(*check)
		if err != nil {
			return &exitError{2, err}
		}
		h := &scenario.Harness{Timeout: *timeout}
		if *verbose {
			h.Log = stdout
		}

		list := []int64{*seed}
		if *seeds > 0 {
			list = list[:0]
			for i := 0; i < *seeds; i++ {
				list = append(list, *startSeed+int64(i))
			}
		}
		start := time.Now()
		for _, s := range list {
			sc := scenario.Sample(s)
			err := h.Check(sc, checks)
			if err == nil {
				fmt.Fprintf(stdout, "ok   seed %d (%s)\n", s, sc.Describe())
				continue
			}
			// Fail fast, echoing the seed: the Violation's Error string
			// carries the scenario and the repro line.
			fmt.Fprintf(stderr, "FAIL %v\n", err)
			var dl *scenario.DeadlockError
			if errors.As(err, &dl) {
				fmt.Fprintf(stderr, "goroutine stacks at the deadline:\n%s\n", dl.Stacks)
			}
			if *shrink && len(sc.Faults) > 0 {
				min, minErr := h.ShrinkFaults(sc, checks)
				if minErr != nil {
					specs := make([]string, len(min.Faults))
					for i, f := range min.Faults {
						specs[i] = f.String()
					}
					fmt.Fprintf(stderr, "minimal failing fault plan: [%s]\nminimal scenario: %s\n",
						strings.Join(specs, " "), min.Describe())
				}
			}
			return &exitError{code: 1} // reported above
		}
		fmt.Fprintf(stdout, "PASS %d seed(s) in %.1fs\n", len(list), time.Since(start).Seconds())
		return nil
	}
}
