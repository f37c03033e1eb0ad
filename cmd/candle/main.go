// candle is this repository's one command line: every tool is a
// subcommand, `candle <subcommand> -h` lists its flags, and README.md
// has the table of what each does and how it exits.
//
//	candle run -bench NT3 -mode real -ranks 4 -epochs 16
//	candle launch -bench NT3 -procs 2 -ranks 4
//	candle serve -bench NT3 -dir ./ckpt -bootstrap
//	candle sim -seeds 25
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// command is one row of the dispatch table.
type command struct {
	name    string
	summary string
	// setup registers the subcommand's flags on fs and returns the
	// body to run once they are parsed.
	setup func(fs *flag.FlagSet) func(stdout, stderr io.Writer) error
}

// commands is the dispatch table; README's subcommand table is held
// equal to it by TestDispatchTable.
var commands = []command{
	{"run", "train one benchmark for real (ranks as goroutines, or one worker of a multi-process world) or simulate it at paper scale", runCmd},
	{"launch", "run one benchmark across several `candle run` worker processes, with elastic recovery", launchCmd},
	{"serve", "answer /predict over HTTP from the newest checkpoint, hot-reloading newer ones", serveCmd},
	{"fleet", "front several `candle serve` replica processes with one router", fleetCmd},
	{"sim", "seeded scenario simulator: draw a run + fault plan per seed, check the invariants", simCmd},
	{"advise", "recommend the configuration with the fewest seconds or joules that meets an accuracy floor", adviseCmd},
	{"power", "print the power-monitor telemetry of a simulated run", powerCmd},
	{"profile", "per-layer forward/backward timing of a benchmark's model, or of one CSV engine", profileCmd},
	{"report", "write the full reproduction bundle of the paper's tables and figures", reportCmd},
	{"sweep", "regenerate one or all of the paper's tables and figures", sweepCmd},
	{"tables", "print the paper's Tables 1-6", tablesCmd},
	{"timeline", "emit a Horovod-style Chrome-trace timeline of a simulated run", timelineCmd},
	{"supervisor", "hyperparameter search over a benchmark (grid, random, halving)", supervisorCmd},
}

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// exitError is how a subcommand asks for an exit status other than 1.
// A nil err means it has already printed what it had to say.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return fmt.Sprintf("exit status %d: %v", e.code, e.err) }

// dispatch runs `candle args...` and returns its exit status: 0 on
// success and for -h, 2 for a command line it cannot parse, 1 for any
// other failure unless the subcommand says otherwise (exitError).
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("candle "+c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		body := c.setup(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		err := body(stdout, stderr)
		if err == nil {
			return 0
		}
		code := 1
		var ee *exitError
		if errors.As(err, &ee) {
			code, err = ee.code, ee.err
		}
		if err != nil {
			fmt.Fprintf(stderr, "candle %s: %v\n", c.name, err)
		}
		return code
	}
	fmt.Fprintf(stderr, "candle: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: candle <subcommand> [flags]   (candle <subcommand> -h lists the flags)")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-11s %s\n", c.name, c.summary)
	}
}
