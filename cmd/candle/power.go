package main

import (
	"flag"
	"fmt"
	"io"

	"candle/internal/power"
)

// powerCmd prints the telemetry a power monitor would log for a
// simulated run: nvidia-smi-style 1 Hz GPU samples on Summit, or the
// PoLiMEr/CapMC node+CPU+memory breakdown at ~2 Hz on Theta —
// Figure 7(a) for any configuration.
//
//	candle power -bench NT3 -ranks 384
//	candle power -bench NT3 -machine theta -ranks 384 -components
func powerCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	var (
		bench      = fs.String("bench", "NT3", benchUsage)
		machine    = fs.String("machine", "summit", "summit or theta")
		ranks      = fs.Int("ranks", 384, "worker count")
		loader     = fs.String("loader", "naive", "naive, chunked, parallel")
		weak       = fs.Bool("weak", false, "weak scaling")
		epochs     = fs.Int("epochs", 0, "epochs (0 = default)")
		every      = fs.Int("every", 10, "print every Nth sample")
		components = fs.Bool("components", false, "PoLiMEr-style node/CPU/mem breakdown")
	)
	return func(stdout, stderr io.Writer) error {
		r, err := simulate(*bench, *machine, *loader, *weak, *ranks, *epochs, 0)
		if err != nil {
			return err
		}
		m, every := r.Config.Machine, max(1, *every)
		fmt.Fprintf(stdout, "%s on %s, %d workers: load %.0fs, broadcast %.0fs, train %.0fs (total %.0fs)\n",
			*bench, m.Name, *ranks, r.LoadTime, r.BroadcastTime, r.TrainTime, r.TotalTime)
		if *components {
			cm := power.ThetaComponents()
			fmt.Fprintf(stdout, "%8s %10s %10s %10s\n", "t_s", "node_W", "cpu_W", "mem_W")
			for i, s := range cm.Samples(r.Profile, m.PowerSampleHz) {
				if i%every == 0 {
					fmt.Fprintf(stdout, "%8.0f %10.1f %10.1f %10.1f\n", s.T, s.W.Node, s.W.CPU, s.W.Mem)
				}
			}
			return nil
		}
		fmt.Fprintf(stdout, "%8s %10s\n", "t_s", "device_W")
		for i, s := range (power.Sampler{RateHz: m.PowerSampleHz}).Samples(r.Profile, r.PowerModel) {
			if i%every == 0 {
				fmt.Fprintf(stdout, "%8.0f %10.1f\n", s.T, s.Watts)
			}
		}
		return nil
	}
}
