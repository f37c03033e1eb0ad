package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"candle/internal/core"
	"candle/internal/sim"
)

// timelineCmd emits a Horovod-style activity timeline in Chrome
// trace-event JSON (open in chrome://tracing), reproducing Figures 7b,
// 12, and 19 of the paper.
//
//	candle timeline -bench NT3 -ranks 384 -loader naive -o fig7b.json
//	candle timeline -bench NT3 -ranks 384 -loader chunked -o fig12.json
//	candle timeline -bench NT3 -ranks 768 -weak -epochs 8 -o fig19.json
func timelineCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		bench  = fs.String("bench", "NT3", simBenchUsage)
		ranks  = fs.Int("ranks", 384, "worker count")
		epochs = fs.Int("epochs", 0, "epochs (0 = default)")
		weak   = fs.Bool("weak", false, "weak scaling")
		loader = fs.String("loader", "naive", "naive, chunked, parallel")
		out    = fs.String("o", "timeline.json", "output file")
	)
	return func(stdout, stderr io.Writer) error {
		ld, err := sim.LoaderByName(*loader)
		if err != nil {
			return err
		}
		scaling := sim.Strong
		if *weak {
			scaling = sim.Weak
		}
		tl, r, err := core.TimelineFor(*bench, *ranks, scaling, *epochs, ld)
		if err != nil {
			return err
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tl.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d events to %s (broadcast overhead %.2f s, total %.2f s)\n",
			tl.Len(), *out, r.BroadcastTime, r.TotalTime)
		return nil
	}
}
