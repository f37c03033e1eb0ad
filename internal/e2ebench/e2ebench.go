// Package e2ebench is the holistic time-to-accuracy / energy-to-
// accuracy benchmark harness (ROADMAP item 5): for each CANDLE pilot
// it runs *real* training via internal/candle.Run across a
// configuration grid {engine × ranks × overlap × batch × dtype},
// records the per-phase wall-clock split (data loading / compute /
// collective — the decomposition the source paper reads off the
// Horovod timeline) from the run's internal/trace timeline, evaluates
// test accuracy at every epoch against a per-pilot target, and
// converts the phase timings into modeled joules with an
// internal/power.ComponentModel.
//
// MLPerf HPC's argument (PAPERS.md) is that end-to-end time-to-
// solution, not step throughput, is the metric for scientific ML; Wu
// et al. extend that to energy. This harness productizes both: its
// output is one schema-versioned BENCH_e2e.json (internal/bench
// envelope, kind "e2e") that candle report renders as a comparison
// table and internal/advisor fits a measured Calibration from, so
// `candle advise -from-bench BENCH_e2e.json` recommends configurations
// from data this machine actually produced instead of the paper's
// analytic tables.
package e2ebench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"candle/internal/bench"
	"candle/internal/candle"
	"candle/internal/power"
	"candle/internal/trace"
)

// Kind is the internal/bench schema kind for BENCH_e2e.json
// ("candle-bench/e2e/v1").
const Kind = "e2e"

// TargetAccuracy and TargetLoss are the two target kinds a pilot can
// declare.
const (
	TargetAccuracy = "accuracy" // reach test accuracy ≥ Target
	TargetLoss     = "loss"     // reach test loss ≤ Target
)

// PilotSpec describes one pilot's scaled real-mode shape, its training
// budget, and the accuracy (or loss) target the clock races against.
type PilotSpec struct {
	Name string `json:"name"`
	// SampleDiv/FeatureDiv scale the paper's dataset shape down to
	// container size (candle.Scaled).
	SampleDiv  int `json:"sample_div"`
	FeatureDiv int `json:"feature_div"`
	// TotalEpochs is the strong-scaling epoch budget divided over ranks.
	TotalEpochs int     `json:"total_epochs"`
	Batch       int     `json:"batch"`
	LR          float64 `json:"lr"`
	// TargetKind is TargetAccuracy or TargetLoss; Target is the value
	// the per-epoch test evaluation must reach.
	TargetKind string  `json:"target_kind"`
	Target     float64 `json:"target"`
}

// Grid is the configuration cross product each pilot sweeps. Zero
// values mean "the pilot's default" (Batches: 0) or "off" (Overlap,
// DTypes "" = f64). Overlap at one rank is skipped — there is no
// collective to hide.
type Grid struct {
	Engines []string `json:"engines"`
	Ranks   []int    `json:"ranks"`
	Overlap []bool   `json:"overlap"`
	Batches []int    `json:"batches"`
	DTypes  []string `json:"dtypes"`
}

// Configs expands the grid into concrete configurations, pruning
// overlap-at-one-rank duplicates.
func (g Grid) Configs() []Config {
	engines := g.Engines
	if len(engines) == 0 {
		engines = []string{"naive"}
	}
	ranks := g.Ranks
	if len(ranks) == 0 {
		ranks = []int{1}
	}
	overlap := g.Overlap
	if len(overlap) == 0 {
		overlap = []bool{false}
	}
	batches := g.Batches
	if len(batches) == 0 {
		batches = []int{0}
	}
	dtypes := g.DTypes
	if len(dtypes) == 0 {
		dtypes = []string{"f64"}
	}
	var out []Config
	for _, e := range engines {
		for _, r := range ranks {
			for _, ov := range overlap {
				if ov && r == 1 {
					continue
				}
				for _, b := range batches {
					for _, dt := range dtypes {
						out = append(out, Config{Engine: e, Ranks: r, Overlap: ov, Batch: b, DType: dt})
					}
				}
			}
		}
	}
	return out
}

// Config is one point of the grid.
type Config struct {
	Engine  string `json:"engine"`
	Ranks   int    `json:"ranks"`
	Overlap bool   `json:"overlap"`
	Batch   int    `json:"batch"`
	DType   string `json:"dtype"`
}

func (c Config) String() string {
	s := fmt.Sprintf("%s/%d ranks/batch %d/%s", c.Engine, c.Ranks, c.Batch, c.DType)
	if c.Overlap {
		s += "/overlap"
	}
	return s
}

// Suite is one harness invocation: pilots × grid, measured with one
// seed and one energy model.
type Suite struct {
	Pilots []PilotSpec
	Grid   Grid
	Seed   int64
	// Power converts phase seconds into joules; the zero value uses
	// power.ContainerComponents(). The assumptions are documented in
	// DESIGN.md §19 and echoed into the artifact's description.
	Power power.ComponentModel
	// Dir holds generated CSVs and per-config cache directories; empty
	// uses a temp dir removed afterwards.
	Dir string
	// Log, when non-nil, receives one progress line per run.
	Log func(format string, args ...any)
}

// Metrics is the BENCH_e2e.json payload (the bench.Result Metrics
// field for kind "e2e").
type Metrics struct {
	Seed   int64         `json:"seed"`
	Pilots []PilotResult `json:"pilots"`
}

// PilotResult is one pilot's sweep.
type PilotResult struct {
	Spec    PilotSpec      `json:"spec"`
	Configs []ConfigResult `json:"configs"`
}

// ConfigResult is one measured configuration: the target race, the
// phase split, and the energy integral.
type ConfigResult struct {
	Config Config `json:"config"`

	// ReachedTarget reports whether any epoch's test evaluation met the
	// pilot's target; TimeToTargetS/EnergyToTargetJ are the run clock
	// and modeled node joules at the end of the first epoch that did
	// (0 when never reached).
	ReachedTarget   bool    `json:"reached_target"`
	TimeToTargetS   float64 `json:"time_to_target_s"`
	EnergyToTargetJ float64 `json:"energy_to_target_j"`

	// Phase split in seconds, rank 0's view from the trace timeline.
	// CollectiveS = BroadcastS + AllreduceS; ComputeS is the training
	// span minus the collective time inside it (clamped at 0 when the
	// overlap pipeline hides communication under backward compute).
	TotalS      float64 `json:"total_s"`
	LoadS       float64 `json:"load_s"`
	BroadcastS  float64 `json:"broadcast_s"`
	AllreduceS  float64 `json:"allreduce_s"`
	CollectiveS float64 `json:"collective_s"`
	ComputeS    float64 `json:"compute_s"`
	EvalS       float64 `json:"eval_s"`
	// OverlapFraction is the share of allreduce time hidden under
	// backward compute (0 for sync runs).
	OverlapFraction float64 `json:"overlap_fraction"`

	// Modeled whole-run energy for all ranks (node/CPU/memory joules
	// from the component model, ranks × per-device integral).
	EnergyJ    float64 `json:"energy_j"`
	EnergyCPUJ float64 `json:"energy_cpu_j"`
	EnergyMemJ float64 `json:"energy_mem_j"`

	// Final test metrics and the full per-epoch trajectory: run clock,
	// test accuracy, test loss, and cumulative modeled node joules at
	// each epoch end. The trajectories are what the measured advisor
	// calibration interpolates arbitrary targets from.
	FinalTestAcc  float64   `json:"final_test_acc"`
	FinalTestLoss float64   `json:"final_test_loss"`
	EpochEndS     []float64 `json:"epoch_end_s"`
	EpochTestAcc  []float64 `json:"epoch_test_acc"`
	EpochTestLoss []float64 `json:"epoch_test_loss"`
	EpochEnergyJ  []float64 `json:"epoch_energy_j"`
}

// DefaultPilots returns the pilot specs the stock BENCH_e2e.json run
// measures: the two classification pilots racing an accuracy floor and
// the P1B1 autoencoder racing a reconstruction-loss ceiling, all at
// container-scale dataset shapes that train in milliseconds per epoch.
// Targets are set so that some grid configurations reach them and
// others do not — the contrast the advisor needs.
func DefaultPilots() []PilotSpec {
	return []PilotSpec{
		{Name: "NT3", SampleDiv: 40, FeatureDiv: 1500, TotalEpochs: 24, Batch: 7, LR: 0.05,
			TargetKind: TargetAccuracy, Target: 0.75},
		{Name: "P1B2", SampleDiv: 60, FeatureDiv: 2000, TotalEpochs: 24, Batch: 5, LR: 0.05,
			TargetKind: TargetAccuracy, Target: 0.5},
		// P1B1's reconstruction loss bottoms out near 0.50 at this scale
		// and budget; 0.52 is reachable only by the 2-rank epoch split,
		// so the sweep records hits AND misses — the contrast the
		// measured advisor needs to prove a floor binds.
		{Name: "P1B1", SampleDiv: 60, FeatureDiv: 2000, TotalEpochs: 24, Batch: 5, LR: 0.01,
			TargetKind: TargetLoss, Target: 0.52},
	}
}

// DefaultGrid returns the stock configuration grid: the paper's best
// whole-file engine against the sharded streaming pipeline, 1/2/4
// ranks, sync vs overlapped collectives, both precisions at the
// default batch.
func DefaultGrid() Grid {
	return Grid{
		Engines: []string{"parallel", "sharded"},
		Ranks:   []int{1, 2, 4},
		Overlap: []bool{false, true},
		DTypes:  []string{"f64", "f32"},
	}
}

// Run executes the suite: every pilot against every grid
// configuration, one real training run each.
func (s Suite) Run() (*Metrics, error) {
	if len(s.Pilots) == 0 {
		return nil, fmt.Errorf("e2ebench: no pilots")
	}
	configs := s.Grid.Configs()
	if len(configs) == 0 {
		return nil, fmt.Errorf("e2ebench: empty grid")
	}
	model := s.Power
	if model == (power.ComponentModel{}) {
		model = power.ContainerComponents()
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("e2ebench: power model: %w", err)
	}
	dir := s.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "e2ebench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	logf := s.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	out := &Metrics{Seed: s.Seed}
	for _, spec := range s.Pilots {
		pr, err := s.runPilot(spec, configs, model, dir, logf)
		if err != nil {
			return nil, fmt.Errorf("e2ebench: %s: %w", spec.Name, err)
		}
		out.Pilots = append(out.Pilots, *pr)
	}
	return out, nil
}

func (s Suite) runPilot(spec PilotSpec, configs []Config, model power.ComponentModel, dir string, logf func(string, ...any)) (*PilotResult, error) {
	b, err := candle.Scaled(spec.Name, spec.SampleDiv, spec.FeatureDiv)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(dir, spec.Name)
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	if _, _, err := b.PrepareData(dataDir, s.Seed); err != nil {
		return nil, err
	}
	pr := &PilotResult{Spec: spec}
	for i, c := range configs {
		// A fresh cache dir per configuration keeps every sharded run
		// cold — the engine comparison stays apples to apples.
		cacheDir := filepath.Join(dataDir, fmt.Sprintf("cache%d", i))
		if err := os.MkdirAll(cacheDir, 0o755); err != nil {
			return nil, err
		}
		cr, err := s.runConfig(b, spec, c, cacheDir, dataDir, model)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		logf("%s %s: total %.3fs (load %.3f, compute %.3f, collective %.3f) reached=%v tta=%.3fs",
			spec.Name, c, cr.TotalS, cr.LoadS, cr.ComputeS, cr.CollectiveS, cr.ReachedTarget, cr.TimeToTargetS)
		pr.Configs = append(pr.Configs, *cr)
	}
	return pr, nil
}

// runConfig is one real training run plus its timeline decomposition
// and energy integral.
func (s Suite) runConfig(b *candle.Benchmark, spec PilotSpec, c Config, cacheDir, dataDir string, model power.ComponentModel) (*ConfigResult, error) {
	tl := trace.NewTimeline()
	batch := c.Batch
	if batch == 0 {
		batch = spec.Batch
	}
	res, err := b.Run(candle.RunConfig{
		Ranks:       c.Ranks,
		TotalEpochs: spec.TotalEpochs,
		Batch:       batch,
		DType:       c.DType,
		Engine:      c.Engine,
		CacheDir:    cacheDir,
		DataDir:     dataDir,
		Seed:        s.Seed,
		LR:          spec.LR,
		Overlap:     c.Overlap,
		Timeline:    tl,
		TrackEpochs: true,
	})
	if err != nil {
		return nil, err
	}
	root := res.Root
	cr := &ConfigResult{
		Config:        Config{Engine: c.Engine, Ranks: c.Ranks, Overlap: c.Overlap, Batch: batch, DType: c.DType},
		FinalTestAcc:  root.TestAccuracy,
		FinalTestLoss: root.TestLoss,
		EpochEndS:     root.EpochEndSeconds,
		EpochTestAcc:  root.EpochTestAcc,
		EpochTestLoss: root.EpochTestLoss,
	}

	// --- Phase split, rank 0's view of the timeline. All runner and
	// Horovod spans share the run clock, so the arithmetic is
	// consistent: the broadcast and allreduce spans sit inside the
	// training span, and overlap-hidden communication (allreduce_overlap)
	// is excluded from the collective total to avoid double counting.
	cr.LoadS = tl.NameTime(0, "data_loading")
	cr.BroadcastS = tl.NameTime(0, "negotiate_broadcast") + tl.NameTime(0, "mpi_broadcast")
	cr.AllreduceS = tl.NameTime(0, "negotiate_allreduce") + tl.NameTime(0, "NCCL_allreduce")
	cr.CollectiveS = cr.BroadcastS + cr.AllreduceS
	trainSpan := tl.NameTime(0, "training")
	cr.ComputeS = trainSpan - cr.CollectiveS
	if cr.ComputeS < 0 {
		cr.ComputeS = 0
	}
	cr.EvalS = root.EvalSeconds
	cr.TotalS = cr.LoadS + trainSpan + cr.EvalS
	cr.OverlapFraction = tl.OverlapFraction(0)

	// --- Energy: integrate the component model over the measured phase
	// mix. phasePower blends compute and collective draw by their
	// measured shares of the training span, so the cumulative joules at
	// an epoch boundary only need that epoch's clock.
	rate := newEnergyRater(cr, model)
	perDevice := rate.total()
	scale := float64(c.Ranks)
	cr.EnergyJ = perDevice.Node * scale
	cr.EnergyCPUJ = perDevice.CPU * scale
	cr.EnergyMemJ = perDevice.Mem * scale
	trainStart := firstStart(tl, "training")
	for _, t := range root.EpochEndSeconds {
		cr.EpochEnergyJ = append(cr.EpochEnergyJ, rate.at(t-trainStart+cr.LoadS)*scale)
	}

	// --- The target race: first epoch whose test evaluation meets the
	// pilot's target.
	idx := crossIndex(spec.TargetKind, spec.Target, cr.EpochTestAcc, cr.EpochTestLoss)
	if idx >= 0 {
		cr.ReachedTarget = true
		cr.TimeToTargetS = (root.EpochEndSeconds[idx] - trainStart) + cr.LoadS
		cr.EnergyToTargetJ = cr.EpochEnergyJ[idx]
	}
	return cr, nil
}

// crossIndex returns the first epoch index whose test metric meets the
// target (-1 when none does).
func crossIndex(kind string, target float64, accs, losses []float64) int {
	for i := range accs {
		switch kind {
		case TargetLoss:
			if losses[i] <= target {
				return i
			}
		default:
			if accs[i] >= target {
				return i
			}
		}
	}
	return -1
}

// firstStart returns the earliest start time of rank 0's events with
// the given name (0 when absent).
func firstStart(tl *trace.Timeline, name string) float64 {
	for _, e := range tl.Filter(name) {
		if e.TID == 0 {
			return e.Start
		}
	}
	return 0
}

// energyRater integrates the component model over a run laid out as
// load → broadcast-and-training-mix → evaluate. Within the training
// span the compute and allreduce draws are blended by their measured
// time shares, so energy is a piecewise-linear function of the clock —
// exact for the whole run, and the standard aggregation for epoch
// boundaries inside it (individual steps interleave phases faster than
// any telemetry samples anyway).
type energyRater struct {
	model power.ComponentModel
	// Breakpoints (seconds from load start) and the node watts in each
	// interval.
	bounds []float64
	watts  []power.Components
}

func newEnergyRater(cr *ConfigResult, model power.ComponentModel) *energyRater {
	trainSpan := cr.ComputeS + cr.CollectiveS
	var trainW power.Components
	if trainSpan > 0 {
		cw, bw, aw := model.At(power.Compute), model.At(power.Broadcast), model.At(power.Allreduce)
		mix := func(c, b, a float64) float64 {
			return (c*cr.ComputeS + b*cr.BroadcastS + a*cr.AllreduceS) / trainSpan
		}
		trainW = power.Components{
			Node: mix(cw.Node, bw.Node, aw.Node),
			CPU:  mix(cw.CPU, bw.CPU, aw.CPU),
			Mem:  mix(cw.Mem, bw.Mem, aw.Mem),
		}
	}
	return &energyRater{
		model:  model,
		bounds: []float64{cr.LoadS, cr.LoadS + trainSpan, cr.LoadS + trainSpan + cr.EvalS},
		watts:  []power.Components{model.At(power.DataLoad), trainW, model.At(power.Evaluate)},
	}
}

// at returns the cumulative node joules at time t (seconds from load
// start), clamped to the run's end.
func (r *energyRater) at(t float64) float64 {
	e, prev := 0.0, 0.0
	for i, b := range r.bounds {
		end := b
		if t < end {
			end = t
		}
		if end > prev {
			e += r.watts[i].Node * (end - prev)
		}
		prev = b
		if t <= b {
			break
		}
	}
	return e
}

// total integrates all components over the whole run.
func (r *energyRater) total() power.Components {
	var e power.Components
	prev := 0.0
	for i, b := range r.bounds {
		dt := b - prev
		if dt > 0 {
			e.Node += r.watts[i].Node * dt
			e.CPU += r.watts[i].CPU * dt
			e.Mem += r.watts[i].Mem * dt
		}
		prev = b
	}
	return e
}

// Write wraps the metrics in the shared bench envelope and writes
// BENCH_e2e.json at path.
func Write(path string, m *Metrics, description string) error {
	r := bench.New(Kind, description)
	r.Regenerate = "make bench-e2e"
	if err := r.SetMetrics(m); err != nil {
		return err
	}
	return r.Write(path)
}

// Load reads a BENCH_e2e.json written by Write, validating the schema
// tag (typed bench.ErrSchema on mismatch).
func Load(path string) (*Metrics, *bench.Result, error) {
	r, err := bench.Load(path, Kind)
	if err != nil {
		return nil, nil, err
	}
	var m Metrics
	if err := r.DecodeMetrics(&m); err != nil {
		return nil, nil, err
	}
	return &m, r, nil
}

// Pilot returns one pilot's results (nil when absent).
func (m *Metrics) Pilot(name string) *PilotResult {
	for i := range m.Pilots {
		if m.Pilots[i].Spec.Name == name {
			return &m.Pilots[i]
		}
	}
	return nil
}

// RankLadder returns the distinct rank counts measured for a pilot,
// ascending.
func (p *PilotResult) RankLadder() []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range p.Configs {
		if !seen[c.Config.Ranks] {
			seen[c.Config.Ranks] = true
			out = append(out, c.Config.Ranks)
		}
	}
	sort.Ints(out)
	return out
}
