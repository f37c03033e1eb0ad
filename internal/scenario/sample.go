// Package scenario is the seeded randomized simulation harness behind
// `candle sim`: from a single int64 seed it deterministically draws a
// full run configuration across the config space the repo has grown —
// pilot × ranks × batch × engine × overlap × precision × fusion ×
// parameter-server × fault plan × elastic × checkpoint cadence ×
// transport (single-process channels vs socket-linked sessions) —
// executes it under a deadlock watchdog, and asserts machine-checked
// invariants (determinism, checkpoint round-trip, fault outcome,
// overlap/dtype equivalences). A failing seed reproduces with
// `candle sim -seed N -verbose`; the shrinker minimizes its fault plan.
//
// This is the sims.mk pattern: a directed test sweep cannot cover the
// cross product of six PRs' features, but a sampler plus invariants
// can walk it one seed at a time, forever.
package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"candle/internal/candle"
	"candle/internal/mpi"
	"candle/internal/trace"
)

// FaultSpec is one scripted fault in sampler form — a value type the
// shrinker can drop from a slice, unlike the consumable mpi.FaultPlan
// it compiles into (Plan builds a fresh plan per run, since fired
// faults stay consumed).
type FaultSpec struct {
	Kind    string // "kill", "delay", or "failsend"
	Rank    int    // kill/delay: the target rank; failsend: the source
	Step    int    // kill/delay: the 0-based collective step
	DelayMs int    // delay only
	Dst     int    // failsend only
	Nth     int    // failsend only: 1-based send count on the link
}

func (f FaultSpec) String() string {
	switch f.Kind {
	case "kill":
		return fmt.Sprintf("kill@rank%d/step%d", f.Rank, f.Step)
	case "delay":
		return fmt.Sprintf("delay@rank%d/step%d/%dms", f.Rank, f.Step, f.DelayMs)
	default:
		return fmt.Sprintf("failsend@rank%d->rank%d/n%d", f.Rank, f.Dst, f.Nth)
	}
}

// aborts reports whether the fault, if it fires, aborts the world
// (kills and failed sends do; delays are pure stragglers).
func (f FaultSpec) aborts() bool { return f.Kind != "delay" }

// Scenario is one fully drawn run configuration. Everything the run
// does follows from these fields plus the seed; Sample(seed) is a pure
// function, which is what makes "candle sim -seed N" a complete repro.
type Scenario struct {
	Seed            int64
	Pilot           string // NT3, P1B1, P1B2, P1B3
	Ranks           int
	TotalEpochs     int
	WeakScaling     bool
	Batch           int
	LR              float64
	ScaleLR         bool
	Engine          string // naive, chunked, parallel, sharded
	UseCache        bool   // sharded only: binary columnar cache
	DType           string // "" (f64 reference) or "f32"
	Overlap         bool
	CycleTime       time.Duration
	FusionBytes     int
	ParameterServer bool
	ValidationFrac  float64
	Checkpoint      bool
	CheckpointEvery int
	Elastic         bool
	Continue        bool
	// Transport selects where the world's ranks live: "" keeps the
	// classic single-process channel world; "unix" splits the ranks
	// over two rendezvous'd worker sessions whose cross-boundary links
	// run over real Unix sockets (candle.RunMultiProc), sweeping the
	// multi-process path, its elastic recovery included, through the
	// same invariants. Drawn only for even rank counts, so the split
	// is clean.
	Transport string
	Faults    []FaultSpec
}

// Dataset scale for every scenario: small enough that a multi-seed
// sweep under -race stays CI-fast, large enough that every pilot
// architecture builds and trains (the same divisors the end-to-end
// tests use).
const (
	sampleDiv  = 60
	featureDiv = 2000
)

// Sample deterministically draws a scenario from a seed. Two
// deliberate constraints keep the drawn space within the invariants'
// reach:
//
//   - at most one world-aborting fault (kill or failed send) fires per
//     world attempt: two aborts racing inside one collective would make
//     the reported root rank a coin flip, which is real nondeterminism
//     but of the error *report*, not of training. A second kill is
//     drawn only for elastic scenarios, at least two collective steps
//     after the first, so it can only fire in the restarted world.
//   - the kill budget stays below Ranks, so an elastic run cannot
//     shrink to zero; over sockets, where a failure costs a whole
//     session, it stays below the session count.
func Sample(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed}
	sc.Pilot = []string{"NT3", "P1B1", "P1B2", "P1B3"}[rng.Intn(4)]
	sc.Ranks = 1 + rng.Intn(4)
	sc.WeakScaling = rng.Intn(10) == 0
	perRank := 1 + rng.Intn(3)
	if sc.WeakScaling {
		sc.TotalEpochs = perRank
	} else {
		sc.TotalEpochs = perRank * sc.Ranks
	}
	sc.Batch = 4 + rng.Intn(9)
	sc.LR = []float64{0.005, 0.01, 0.02, 0.03}[rng.Intn(4)]
	sc.ScaleLR = rng.Intn(4) == 0
	sc.Engine = []string{"naive", "chunked", "parallel", "sharded"}[rng.Intn(4)]
	if sc.Engine == "sharded" {
		sc.UseCache = rng.Intn(2) == 0
	}
	if rng.Intn(3) == 0 {
		sc.DType = "f32"
	}
	sc.ParameterServer = rng.Intn(5) == 0
	if !sc.ParameterServer {
		sc.Overlap = rng.Intn(2) == 0
		if sc.Overlap && rng.Intn(2) == 0 {
			sc.CycleTime = time.Millisecond
		}
	}
	sc.FusionBytes = []int{0, 1 << 10, 8 << 10}[rng.Intn(3)]
	if rng.Intn(3) == 0 {
		sc.ValidationFrac = 0.2
	}
	sc.Checkpoint = rng.Intn(2) == 0
	sc.CheckpointEvery = 1 + rng.Intn(2)
	sc.Elastic = rng.Intn(2) == 0
	sc.Continue = sc.Checkpoint && rng.Intn(2) == 0

	// Fault plan: up to one aborting fault plus up to two delays, and
	// for elastic worlds possibly a second, well-separated kill.
	nFaults := rng.Intn(3)
	abortDrawn := false
	firstKillStep := -1
	for i := 0; i < nFaults; i++ {
		switch kind := rng.Intn(3); {
		case kind == 0 && !abortDrawn && sc.Ranks > 1:
			f := FaultSpec{Kind: "kill", Rank: rng.Intn(sc.Ranks), Step: rng.Intn(12)}
			sc.Faults = append(sc.Faults, f)
			abortDrawn, firstKillStep = true, f.Step
		case kind == 1 && !abortDrawn && sc.Ranks > 1:
			src := rng.Intn(sc.Ranks)
			f := FaultSpec{Kind: "failsend", Rank: src, Dst: (src + 1) % sc.Ranks, Nth: 1 + rng.Intn(30)}
			sc.Faults = append(sc.Faults, f)
			abortDrawn = true
		default:
			sc.Faults = append(sc.Faults, FaultSpec{
				Kind: "delay", Rank: rng.Intn(sc.Ranks), Step: rng.Intn(12),
				DelayMs: 1 + rng.Intn(15),
			})
		}
	}
	if sc.Elastic && firstKillStep >= 0 && sc.Ranks > 2 && rng.Intn(3) == 0 {
		// A restart-world kill: fires only after the first kill has
		// already shrunk the world (step counters reset per attempt, and
		// no rank can be two collectives ahead of a blocked peer).
		sc.Faults = append(sc.Faults, FaultSpec{
			Kind: "kill", Rank: rng.Intn(sc.Ranks - 1), Step: firstKillStep + 2 + rng.Intn(6),
		})
	}
	// Transport split, drawn last so older seeds keep their exact fault
	// draws. Elastic recovery drops the failed rank's whole session
	// there (the launcher's shape), so the split is drawn only when the
	// surviving sessions can absorb every drawn abort.
	if sc.Ranks >= 2 && sc.Ranks%socketProcs == 0 && len(sc.abortFaults()) < socketProcs && rng.Intn(3) == 0 {
		sc.Transport = "unix"
	}
	return sc
}

// socketProcs is how many worker sessions a socket-transport scenario
// splits its ranks over (candle.RunMultiProc).
const socketProcs = 2

// groupSize is the rank count elastic recovery drops per failure: one
// rank in the channel world, one whole session over sockets.
func (sc *Scenario) groupSize() int {
	if sc.Transport == "" {
		return 1
	}
	return sc.Ranks / socketProcs
}

// abortFaults returns the scripted world-aborting faults.
func (sc *Scenario) abortFaults() []FaultSpec {
	var out []FaultSpec
	for _, f := range sc.Faults {
		if f.aborts() {
			out = append(out, f)
		}
	}
	return out
}

// scriptedRanks is the set of ranks an aborting fault could name.
func (sc *Scenario) scriptedRanks() map[int]bool {
	out := map[int]bool{}
	for _, f := range sc.abortFaults() {
		out[f.Rank] = true
	}
	return out
}

// Plan compiles the fault specs into a fresh mpi.FaultPlan (nil when
// none are scripted). Each run needs its own plan: fired faults stay
// consumed, by design, across a run's elastic restarts.
func (sc *Scenario) Plan() *mpi.FaultPlan {
	if len(sc.Faults) == 0 {
		return nil
	}
	p := mpi.NewFaultPlan()
	for _, f := range sc.Faults {
		switch f.Kind {
		case "kill":
			p.KillAt(f.Rank, f.Step)
		case "delay":
			p.DelayAt(f.Rank, f.Step, time.Duration(f.DelayMs)*time.Millisecond)
		case "failsend":
			p.FailSend(f.Rank, f.Dst, f.Nth)
		}
	}
	return p
}

// Benchmark builds the scenario's scaled pilot.
func (sc *Scenario) Benchmark() (*candle.Benchmark, error) {
	return candle.Scaled(sc.Pilot, sampleDiv, featureDiv)
}

// Config materializes the scenario as a runnable candle.RunConfig. The
// directories and timeline are per-run: the harness never shares
// checkpoint or cache state between the runs it compares unless a
// check explicitly stages it (the import/export round trip).
func (sc *Scenario) Config(dataDir, ckptDir, cacheDir string, tl *trace.Timeline) candle.RunConfig {
	cfg := candle.RunConfig{
		Ranks:       sc.Ranks,
		TotalEpochs: sc.TotalEpochs,
		WeakScaling: sc.WeakScaling,
		Batch:       sc.Batch,
		LR:          sc.LR,
		ScaleLR:     sc.ScaleLR,
		DType:       sc.DType,
		Engine:      sc.Engine,
		DataDir:     dataDir,
		// CacheDir is always the per-run directory, even when the
		// scenario does not exercise the warm-cache path: with an empty
		// CacheDir the sharded engine writes its binary cache alongside
		// the shared CSVs, and a twin run would then load warm with a
		// different collective schedule than the cold base run —
		// shifting which step-keyed faults fire. (UseCache scenarios
		// pre-warm the per-run directory instead, so compared runs are
		// warm/warm.)
		CacheDir:        cacheDir,
		Seed:            sc.Seed,
		Timeline:        tl,
		FusionBytes:     sc.FusionBytes,
		Overlap:         sc.Overlap,
		CycleTime:       sc.CycleTime,
		ParameterServer: sc.ParameterServer,
		ValidationFrac:  sc.ValidationFrac,
		Elastic:         sc.Elastic,
		Continue:        sc.Continue,
		Transport:       sc.Transport,
		KeepWeights:     true,
		Faults:          sc.Plan(),
	}
	if sc.Checkpoint {
		cfg.CheckpointDir = ckptDir
		cfg.CheckpointEvery = sc.CheckpointEvery
	}
	return cfg
}

// Describe renders the scenario as one line for logs and repro output.
func (sc *Scenario) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d %s ranks=%d epochs=%d", sc.Seed, sc.Pilot, sc.Ranks, sc.TotalEpochs)
	if sc.WeakScaling {
		b.WriteString(" weak")
	}
	fmt.Fprintf(&b, " batch=%d lr=%g engine=%s", sc.Batch, sc.LR, sc.Engine)
	if sc.UseCache {
		b.WriteString("+cache")
	}
	if sc.DType != "" {
		fmt.Fprintf(&b, " dtype=%s", sc.DType)
	}
	if sc.ParameterServer {
		b.WriteString(" ps")
	}
	if sc.Overlap {
		fmt.Fprintf(&b, " overlap(cycle=%s)", sc.CycleTime)
	}
	if sc.FusionBytes != 0 {
		fmt.Fprintf(&b, " fusion=%d", sc.FusionBytes)
	}
	if sc.ScaleLR {
		b.WriteString(" scale-lr")
	}
	if sc.ValidationFrac > 0 {
		fmt.Fprintf(&b, " val=%g", sc.ValidationFrac)
	}
	if sc.Checkpoint {
		fmt.Fprintf(&b, " ckpt(every=%d)", sc.CheckpointEvery)
	}
	if sc.Elastic {
		b.WriteString(" elastic")
	}
	if sc.Continue {
		b.WriteString(" continue")
	}
	if sc.Transport != "" {
		fmt.Fprintf(&b, " transport=%s(%d procs)", sc.Transport, socketProcs)
	}
	if len(sc.Faults) > 0 {
		specs := make([]string, len(sc.Faults))
		for i, f := range sc.Faults {
			specs[i] = f.String()
		}
		fmt.Fprintf(&b, " faults=[%s]", strings.Join(specs, " "))
	}
	return b.String()
}
