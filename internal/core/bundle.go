package core

import (
	"fmt"
	"os"
	"path/filepath"

	"candle/internal/hpc"
	"candle/internal/power"
	"candle/internal/report"
	"candle/internal/sim"
)

// WriteBundle regenerates every paper artifact into dir as a
// self-contained reproduction bundle:
//
//	tables.txt            all tables/figures, aligned ASCII
//	csv/<id>.csv          one CSV per artifact, for plotting
//	timelines/fig7b.json  Chrome traces for Figures 7b, 12, 19
//	timelines/fig12.json
//	timelines/fig19.json
//	power/fig7a.csv       the 1 Hz GPU power trace of Figure 7a
//
// It returns the number of files written.
func WriteBundle(dir string) (int, error) {
	written := 0
	for _, sub := range []string{"csv", "timelines", "power"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return written, fmt.Errorf("core: %w", err)
		}
	}
	tables, err := RunAll()
	if err != nil {
		return written, err
	}
	var all []byte
	for _, t := range tables {
		all = append(all, t.String()...)
		all = append(all, '\n')
		csvPath := filepath.Join(dir, "csv", sanitize(t.ID)+".csv")
		if err := os.WriteFile(csvPath, []byte(t.CSV()), 0o644); err != nil {
			return written, fmt.Errorf("core: %w", err)
		}
		written++
	}
	if err := os.WriteFile(filepath.Join(dir, "tables.txt"), all, 0o644); err != nil {
		return written, fmt.Errorf("core: %w", err)
	}
	written++

	// charts.txt: ASCII bar charts of the headline series, the
	// terminal stand-in for the paper's figures.
	var charts []byte
	for _, cc := range []struct {
		id       string
		valueCol int
	}{
		{"fig6a", 1},  // TensorFlow time vs GPUs
		{"fig6b", 2},  // accuracy vs GPUs
		{"fig10a", 2}, // linear-scaling runtime
		{"fig11", 3},  // improvement %
		{"fig13", 3},
		{"fig14", 3},
		{"fig16", 3},
		{"fig18", 3},
		{"fig20", 3},
		{"fig21", 3},
	} {
		var tb *report.Table
		for _, t := range tables {
			if t.ID == cc.id {
				tb = t
			}
		}
		if tb == nil {
			continue
		}
		c, err := report.ChartFromTable(tb, 0, cc.valueCol)
		if err != nil {
			return written, err
		}
		charts = append(charts, c.String()...)
		charts = append(charts, '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "charts.txt"), charts, 0o644); err != nil {
		return written, fmt.Errorf("core: %w", err)
	}
	written++

	// Timelines for the three timeline figures.
	for _, tc := range []struct {
		name    string
		ranks   int
		scaling sim.Scaling
		epochs  int
		loader  string
	}{
		{"fig7b", 384, sim.Strong, 0, "naive"},
		{"fig12", 384, sim.Strong, 0, "chunked"},
		{"fig19", 768, sim.Weak, 8, "naive"},
	} {
		tl, _, err := nt3Timeline(tc.ranks, tc.scaling, tc.epochs, tc.loader)
		if err != nil {
			return written, err
		}
		f, err := os.Create(filepath.Join(dir, "timelines", tc.name+".json"))
		if err != nil {
			return written, fmt.Errorf("core: %w", err)
		}
		if err := tl.WriteJSON(f); err != nil {
			f.Close()
			return written, err
		}
		if err := f.Close(); err != nil {
			return written, fmt.Errorf("core: %w", err)
		}
		written++
	}

	// Figure 7a power trace as CSV.
	r, err := mustSummit("NT3", 384, 0, "naive")
	if err != nil {
		return written, err
	}
	if err := os.WriteFile(filepath.Join(dir, "power", "fig7a.csv"), []byte(PowerTrace(r).CSV()), 0o644); err != nil {
		return written, fmt.Errorf("core: %w", err)
	}
	written++
	return written, nil
}

// PowerTrace tabulates every sample the machine's power monitor logs
// over a simulated run: t_s,watts for one device at the machine's
// sampling rate (nvidia-smi's 1 Hz on Summit), plus PoLiMEr's
// node_W,cpu_W,mem_W breakdown on Theta (CapMC's 2 Hz). Its CSV is
// the Figure 7(a) trace.
func PowerTrace(r *sim.Result) *report.Table {
	m := r.Config.Machine
	samples := power.Sampler{RateHz: m.PowerSampleHz}.Samples(r.Profile, r.PowerModel)
	headers := []string{"t_s", "watts"}
	var parts []power.ComponentSample
	if m.Name == hpc.Theta().Name {
		parts = power.ThetaComponents().Samples(r.Profile, m.PowerSampleHz)
		headers = append(headers, "node_W", "cpu_W", "mem_W")
	}
	t := report.New("power", "power trace of "+r.Config.Bench.Name+" on "+m.Name, headers...)
	for i, s := range samples {
		// -1: the shortest exact form, whole seconds at 1 Hz.
		row := []string{report.F(s.T, -1), report.F(s.Watts, 1)}
		if parts != nil {
			w := parts[i].W
			row = append(row, report.F(w.Node, 1), report.F(w.CPU, 1), report.F(w.Mem, 1))
		}
		t.AddRow(row...)
	}
	return t
}

// sanitize maps artifact IDs to filesystem-safe names ("sec5.4" →
// "sec5_4").
func sanitize(id string) string {
	out := make([]rune, 0, len(id))
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
