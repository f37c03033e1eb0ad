package main

import (
	"flag"
	"fmt"
	"io"

	"candle/internal/core"
)

// reportCmd writes the full reproduction bundle — every table and
// figure of the paper as aligned text, per-artifact CSV, Chrome-trace
// timelines, and the Figure 7(a) power trace — into one directory.
//
//	candle report -o out/
func reportCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	out := fs.String("o", "reproduction", "output directory")
	return func(stdout, stderr io.Writer) error {
		n, err := core.WriteBundle(*out)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d artifact files to %s/\n", n, *out)
		return nil
	}
}
