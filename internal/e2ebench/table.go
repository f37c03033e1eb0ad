package e2ebench

import (
	"fmt"

	"candle/internal/report"
)

// Tables renders the metrics as comparison tables, one per pilot: each
// row is one measured configuration with its time/energy-to-target and
// phase split. This is what `candle report -e2e BENCH_e2e.json` prints.
func Tables(m *Metrics) []*report.Table {
	var out []*report.Table
	for i := range m.Pilots {
		out = append(out, pilotTable(&m.Pilots[i]))
	}
	return out
}

func pilotTable(p *PilotResult) *report.Table {
	t := report.New(
		"e2e-"+p.Spec.Name,
		fmt.Sprintf("%s time/energy to target (%s %s %.3g)",
			p.Spec.Name, p.Spec.TargetKind, relation(p.Spec.TargetKind), p.Spec.Target),
		"engine", "ranks", "overlap", "batch", "dtype",
		"target", "time-to-target", "energy-to-target",
		"total", "load", "compute", "collective", "final acc", "final loss",
	)
	for _, c := range p.Configs {
		tta, eta := "—", "—"
		reached := "miss"
		if c.ReachedTarget {
			reached = "hit"
			tta = fmt.Sprintf("%.3fs", c.TimeToTargetS)
			eta = fmt.Sprintf("%.1fJ", c.EnergyToTargetJ)
		}
		overlap := "sync"
		if c.Config.Overlap {
			overlap = "overlap"
		}
		t.AddRow(
			c.Config.Engine,
			fmt.Sprintf("%d", c.Config.Ranks),
			overlap,
			fmt.Sprintf("%d", c.Config.Batch),
			c.Config.DType,
			reached, tta, eta,
			fmt.Sprintf("%.3fs", c.TotalS),
			fmt.Sprintf("%.3fs", c.LoadS),
			fmt.Sprintf("%.3fs", c.ComputeS),
			fmt.Sprintf("%.3fs", c.CollectiveS),
			fmt.Sprintf("%.3f", c.FinalTestAcc),
			fmt.Sprintf("%.4f", c.FinalTestLoss),
		)
	}
	t.AddNote("energy modeled from the phase split (DESIGN.md §19); ranks scale per-device draw")
	t.AddNote("epochs: %d total (strong scaling), seed-deterministic accuracy trajectories", p.Spec.TotalEpochs)
	return t
}

func relation(kind string) string {
	if kind == TargetLoss {
		return "≤"
	}
	return "≥"
}
