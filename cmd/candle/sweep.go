package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"candle/internal/candle"
	"candle/internal/core"
	"candle/internal/report"
)

// sweepCmd regenerates some or all of the paper's tables and figures
// from the calibrated models, or writes them all as a reproduction
// bundle.
//
//	candle sweep -exp fig6a
//	candle sweep -exp table3 -csv
//	candle sweep -exp table1,table2,table3,table4,table5,table6
//	candle sweep -exp all
//	candle sweep -list
//	candle sweep -o reproduction/
func sweepCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		exp     = fs.String("exp", "all", "comma-separated experiment IDs (e.g. fig6a,table3,sec5.4) or 'all'")
		csv     = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		chart   = fs.Int("chart", -1, "also render an ASCII bar chart of this column index (labels from column 0)")
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		loaders = fs.String("loaders", "", "run a real-mode phase-1 comparison of every registered CSV engine on this benchmark (e.g. NT3)")
		out     = fs.String("o", "", "write the full reproduction bundle into this directory: every table and figure as text and CSV, the Figure 7b/12/19 timelines, the Figure 7a power trace")
	)
	return func(stdout, stderr io.Writer) error {
		if *out != "" {
			if fs.NFlag() > 1 {
				return &exitError{2, errors.New("-o writes every artifact and takes no other flag")}
			}
			n, err := core.WriteBundle(*out)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d artifact files to %s/\n", n, *out)
			return nil
		}
		switch {
		case *list:
			for _, e := range core.Experiments() {
				fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
			}
			for _, e := range core.ExtraExperiments() {
				fmt.Fprintf(stdout, "%-8s %s (extra)\n", e.ID, e.Title)
			}
			return nil
		case *loaders != "":
			return runLoaders(stdout, *loaders)
		case *exp == "all":
			return runExperiments(stdout, core.Experiments(), *csv, *chart)
		default:
			return runExperimentIDs(stdout, strings.Split(*exp, ","), *csv, *chart)
		}
	}
}

// runLoaders is the real-mode analogue of Tables 3/4: generate the
// benchmark's CSVs and time phase 1 under every registered engine.
// Two rounds, so the sharded engine's cold parse and warm binary
// cache both appear.
func runLoaders(stdout io.Writer, bench string) error {
	b, err := candle.Default(bench)
	if err != nil {
		return err
	}
	dir, cleanup, err := prepareData(b, "", 1)
	if err != nil {
		return err
	}
	defer cleanup()
	for round, label := range []string{"cold", "warm"} {
		times, err := b.CompareLoaders(dir)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(times))
		for name := range times {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(stdout, "%s phase-1 load (%s, round %d):\n", bench, label, round+1)
		for _, name := range names {
			fmt.Fprintf(stdout, "  %-40s %10.4f s\n", name, times[name])
		}
	}
	return nil
}

func runExperimentIDs(stdout io.Writer, ids []string, csv bool, chart int) error {
	exps := make([]core.Experiment, len(ids))
	for i, id := range ids {
		e, ok := core.ByIDAll(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		exps[i] = e
	}
	return runExperiments(stdout, exps, csv, chart)
}

func runExperiments(stdout io.Writer, exps []core.Experiment, csv bool, chart int) error {
	for _, e := range exps {
		t, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if csv {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprintln(stdout, t.String())
		}
		if chart >= 0 {
			c, err := report.ChartFromTable(t, 0, chart)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintln(stdout, c.String())
		}
	}
	return nil
}
