package main

import (
	"flag"
	"fmt"
	"io"

	"candle/internal/core"
	"candle/internal/e2ebench"
)

// reportCmd writes the full reproduction bundle — every table and
// figure of the paper as aligned text, per-artifact CSV, Chrome-trace
// timelines, and the Figure 7(a) power trace — into one directory.
// With -e2e it instead renders a measured BENCH_e2e.json as comparison
// tables: one per pilot, one row per configuration, with the
// time/energy-to-target race and the load/compute/collective split.
//
//	candle report -o out/
//	candle report -e2e BENCH_e2e.json
func reportCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	out := fs.String("o", "reproduction", "output directory")
	e2e := fs.String("e2e", "", "render a BENCH_e2e.json as comparison tables instead of writing the bundle")
	return func(stdout, stderr io.Writer) error {
		if *e2e != "" {
			return renderE2E(stdout, *e2e)
		}
		n, err := core.WriteBundle(*out)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d artifact files to %s/\n", n, *out)
		return nil
	}
}

// renderE2E prints the measured e2e artifact as per-pilot tables.
func renderE2E(w io.Writer, path string) error {
	m, res, err := e2ebench.Load(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s (%s, %s, seed %d)\n\n", path, res.Environment.CPU, res.Environment.Date, m.Seed)
	for _, t := range e2ebench.Tables(m) {
		fmt.Fprintln(w, t.String())
	}
	return nil
}
