package scenario

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"candle/internal/candle"
	"candle/internal/checkpoint"
	"candle/internal/csvio"
	"candle/internal/dataload"
	"candle/internal/mpi"
	"candle/internal/trace"
)

// Checks selects which invariant families a Check runs beyond the
// always-on outcome classification (typed errors, fired faults,
// replica sanity) of the scenario's own run. The zero value runs just
// that base run.
type Checks struct {
	// Determinism re-runs the identical scenario and requires
	// bit-identical final weights, identical restart counts, and (for
	// abort-free plans) identical per-rank timeline event sequences.
	Determinism bool
	// Overlap re-runs with the overlap pipeline flipped and requires
	// bit-identical weights (skipped for parameter-server scenarios,
	// where overlap is not wired).
	Overlap bool
	// DType re-runs with f32/f64 flipped and requires the documented
	// equivalence: the same collective schedule, and checkpoints tagged
	// with the precision they were trained at.
	DType bool
	// ImportExport runs the checkpoint round trip: export at the half
	// point, import with Continue, and require bit-identity with an
	// uninterrupted run.
	ImportExport bool
	// Transport re-runs with the world's process split flipped —
	// single-process channels vs two socket-linked worker sessions —
	// and requires bit-identical training (the tentpole's cross-process
	// determinism claim).
	Transport bool
}

// AllChecks enables every invariant family.
func AllChecks() Checks {
	return Checks{Determinism: true, Overlap: true, DType: true, ImportExport: true, Transport: true}
}

// ParseChecks maps a candle sim -check flag value onto a selection.
func ParseChecks(name string) (Checks, error) {
	switch name {
	case "", "all":
		return AllChecks(), nil
	case "determinism", "nondeterminism":
		return Checks{Determinism: true}, nil
	case "overlap":
		return Checks{Overlap: true}, nil
	case "dtype":
		return Checks{DType: true}, nil
	case "import-export":
		return Checks{ImportExport: true}, nil
	case "transport":
		return Checks{Transport: true}, nil
	case "faults":
		return Checks{}, nil // base run outcome classification only
	default:
		return Checks{}, fmt.Errorf("scenario: unknown check %q (want all, determinism, overlap, dtype, import-export, transport, or faults)", name)
	}
}

// Violation is a machine-checked invariant failure. Its Error string
// always ends with the one-line repro, so any path that prints the
// failure hands the user a command to reproduce it.
type Violation struct {
	Seed      int64
	Invariant string // "fault-outcome", "determinism", "overlap-equivalence", "dtype-equivalence", "import-export", "transport-equivalence", "no-hang", "sanity"
	Detail    string
	Scenario  string // Describe() of the scenario that violated it
	Err       error  // underlying error, when one exists (e.g. *DeadlockError)
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %s invariant violated: %s", v.Seed, v.Invariant, v.Detail)
	if v.Scenario != "" {
		fmt.Fprintf(&b, "\n  scenario: %s", v.Scenario)
	}
	fmt.Fprintf(&b, "\n  %s", ReproLine(v.Seed))
	return b.String()
}

func (v *Violation) Unwrap() error { return v.Err }

// ReproLine is the command that replays a failing seed.
func ReproLine(seed int64) string {
	return fmt.Sprintf("repro: candle sim -seed %d -verbose", seed)
}

// Harness executes scenarios and checks invariants. The zero value is
// usable: real runs, 2-minute watchdog, silent.
type Harness struct {
	// Timeout bounds each individual run before the watchdog declares
	// a deadlock (0 = 2 minutes).
	Timeout time.Duration
	// Log, when non-nil, receives one line per run (the -verbose
	// narration).
	Log io.Writer
	// Run overrides how a configured run executes; nil means
	// (*candle.Benchmark).Run. Tests plant invariant violations here.
	Run RunFunc
}

func (h *Harness) logf(format string, args ...any) {
	if h.Log != nil {
		fmt.Fprintf(h.Log, format+"\n", args...)
	}
}

// CheckSeed samples the scenario for seed and checks it.
func (h *Harness) CheckSeed(seed int64, checks Checks) error {
	sc := Sample(seed)
	h.logf("scenario: %s", sc.Describe())
	return h.Check(sc, checks)
}

// outcome is one executed run plus everything the invariants inspect.
type outcome struct {
	label   string
	res     *candle.RunResult
	err     error
	tl      *trace.Timeline
	fired   []string
	ckptDir string
}

// Check executes the scenario (and the twin runs the selected checks
// require) in a throwaway workspace and returns the first invariant
// violation, or nil. Infrastructure failures (temp dir, data
// generation) return ordinary errors, not Violations.
func (h *Harness) Check(sc Scenario, checks Checks) error {
	b, err := sc.Benchmark()
	if err != nil {
		return h.violation(&sc, "sanity", "scenario does not build a benchmark: %v", err)
	}
	work, err := os.MkdirTemp("", "candle-sim-")
	if err != nil {
		return fmt.Errorf("scenario: workspace: %w", err)
	}
	defer os.RemoveAll(work)
	dataDir := filepath.Join(work, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("scenario: workspace: %w", err)
	}
	if _, _, err := b.PrepareData(dataDir, sc.Seed); err != nil {
		return fmt.Errorf("scenario: preparing data: %w", err)
	}

	runID := 0
	exec := func(label string, s Scenario, mut func(cfg *candle.RunConfig)) outcome {
		runID++
		tl := trace.NewTimeline()
		ckpt := filepath.Join(work, fmt.Sprintf("ckpt-%d", runID))
		cache := filepath.Join(work, fmt.Sprintf("cache-%d", runID))
		if s.UseCache {
			// Warm the per-run cache with a standalone single-process
			// read before the world starts, so the run (and any run it
			// is compared against) loads warm — cold-vs-warm runs have
			// different collective schedules, which would shift the
			// step-keyed faults and the timeline.
			if err := warmCache(b, dataDir, cache); err != nil {
				h.logf("run %s: cache warmup failed: %v", label, err)
			}
		}
		cfg := s.Config(dataDir, ckpt, cache, tl)
		if mut != nil {
			mut(&cfg)
		}
		start := time.Now()
		res, err := h.execute(sc.Seed, label, b, cfg)
		o := outcome{label: label, res: res, err: err, tl: tl, fired: cfg.Faults.Fired(), ckptDir: cfg.CheckpointDir}
		h.logf("run %-14s err=%v fired=%v (%.2fs)", label+":", err, o.fired, time.Since(start).Seconds())
		return o
	}

	// Base run: the scenario exactly as drawn. Its outcome
	// classification (typed error or elastic completion, fired faults
	// accounted for, finite synchronized replicas) is the always-on
	// invariant.
	base := exec("base", sc, nil)
	if v := h.classify(&sc, base); v != nil {
		return v
	}

	if checks.Determinism {
		if v := h.checkDeterminism(&sc, base, exec); v != nil {
			return v
		}
	}
	if checks.Overlap {
		if v := h.checkOverlap(&sc, base, exec); v != nil {
			return v
		}
	}
	if checks.DType {
		if v := h.checkDType(&sc, b.Spec.Name, base, exec); v != nil {
			return v
		}
	}
	if checks.ImportExport {
		if v := h.checkImportExport(&sc, exec); v != nil {
			return v
		}
	}
	if checks.Transport {
		if v := h.checkTransport(&sc, base, exec); v != nil {
			return v
		}
	}
	return nil
}

func (h *Harness) violation(sc *Scenario, invariant, format string, args ...any) *Violation {
	v := &Violation{Seed: sc.Seed, Invariant: invariant, Detail: fmt.Sprintf(format, args...), Scenario: sc.Describe()}
	for _, a := range args {
		if err, ok := a.(error); ok {
			v.Err = err
			break
		}
	}
	return v
}

// firedAborts filters a Fired() list down to the world-aborting specs.
func firedAborts(fired []string) []string {
	var out []string
	for _, f := range fired {
		if strings.HasPrefix(f, "kill@") || strings.HasPrefix(f, "failsend@") {
			out = append(out, f)
		}
	}
	return out
}

// classify applies the fault-outcome and sanity invariants to one run:
// every scenario either completes (elastically when faults fired) or
// surfaces exactly one typed *mpi.RankFailedError naming a scripted
// rank — and a completed run's replicas are finite, synchronized,
// account for every fired fault with a restart, and number the initial
// ranks less the groups those restarts dropped.
func (h *Harness) classify(sc *Scenario, o outcome) *Violation {
	if o.err != nil {
		var dl *DeadlockError
		if errors.As(o.err, &dl) {
			v := h.violation(sc, "no-hang", "%s run deadlocked: %v", o.label, dl)
			v.Err = dl
			return v
		}
		var rf *mpi.RankFailedError
		if !errors.As(o.err, &rf) {
			return h.violation(sc, "fault-outcome", "%s run failed with an untyped error: %v", o.label, o.err)
		}
		if len(sc.abortFaults()) == 0 {
			return h.violation(sc, "fault-outcome", "%s run failed (%v) with no aborting fault scripted", o.label, o.err)
		}
		if sc.Elastic {
			return h.violation(sc, "fault-outcome", "elastic %s run surfaced %v instead of absorbing the failure", o.label, o.err)
		}
		if !sc.scriptedRanks()[rf.Rank] {
			return h.violation(sc, "fault-outcome", "%s run error names rank %d, which no scripted fault targets (%s)", o.label, rf.Rank, o.err)
		}
		return nil
	}
	if o.res == nil || len(o.res.Ranks) == 0 {
		return h.violation(sc, "sanity", "%s run returned neither results nor an error", o.label)
	}
	aborts := firedAborts(o.fired)
	if len(aborts) > 0 && !sc.Elastic {
		return h.violation(sc, "fault-outcome", "aborting fault %v fired but the non-elastic %s run completed without error", aborts, o.label)
	}
	if o.res.Restarts != len(aborts) {
		return h.violation(sc, "fault-outcome", "%s run reports %d restarts but %d aborting faults fired (%v)", o.label, o.res.Restarts, len(aborts), aborts)
	}
	// Each absorbed failure costs the whole group hosting the failed
	// rank: one rank in the channel world, one session over sockets.
	if want := sc.Ranks - len(o.res.Failures)*sc.groupSize(); len(o.res.Ranks) != want {
		return h.violation(sc, "fault-outcome", "%s run finished on %d ranks; %d ranks less %d failed groups of %d leave %d",
			o.label, len(o.res.Ranks), sc.Ranks, len(o.res.Failures), sc.groupSize(), want)
	}
	for _, f := range o.res.Failures {
		if !sc.scriptedRanks()[f.Rank] {
			return h.violation(sc, "fault-outcome", "%s run absorbed a failure of rank %d, which no scripted fault targets", o.label, f.Rank)
		}
	}
	for _, r := range o.res.Ranks {
		if len(r.FinalWeights) == 0 {
			return h.violation(sc, "sanity", "%s run rank %d recorded no final weights despite KeepWeights", o.label, r.Rank)
		}
		for _, w := range r.FinalWeights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return h.violation(sc, "sanity", "%s run rank %d has non-finite final weights", o.label, r.Rank)
			}
		}
		if math.IsNaN(r.FinalLoss) || math.IsInf(r.FinalLoss, 0) {
			return h.violation(sc, "sanity", "%s run rank %d final loss is %v", o.label, r.Rank, r.FinalLoss)
		}
	}
	root := o.res.Ranks[0]
	for _, r := range o.res.Ranks[1:] {
		if !equalF64(r.FinalWeights, root.FinalWeights) {
			return h.violation(sc, "sanity", "%s run replicas diverged: rank %d weights are not bit-identical to rank 0's", o.label, r.Rank)
		}
	}
	return nil
}

// signatureEvents is the curated timeline vocabulary the determinism
// invariant compares. Deliberately excluded: queue_wait and
// allreduce_overlap (anchored at enqueue times, so their sort position
// is timing-dependent), and the shard/cache I/O spans (cold-vs-warm
// asymmetric by design).
var signatureEvents = map[string]bool{
	"data_loading":        true,
	"training":            true,
	"negotiate_broadcast": true,
	"mpi_broadcast":       true,
	"negotiate_allreduce": true,
	"NCCL_allreduce":      true,
}

func signature(tl *trace.Timeline, tid int) []string {
	return tl.NameSequence(tid, func(name string) bool { return signatureEvents[name] })
}

// checkDeterminism re-executes the identical scenario and requires the
// two runs to agree: bit-identical weights and losses per rank,
// identical failure shape, and — when no abort fired, so no attempt
// was cut short at a timing-dependent observation point — identical
// per-rank timeline event sequences.
func (h *Harness) checkDeterminism(sc *Scenario, base outcome, exec func(string, Scenario, func(*candle.RunConfig)) outcome) *Violation {
	twin := exec("twin", *sc, nil)
	if v := h.classify(sc, twin); v != nil {
		return v
	}
	if (base.err == nil) != (twin.err == nil) {
		return h.violation(sc, "determinism", "same seed diverged: base err=%v, twin err=%v", base.err, twin.err)
	}
	if base.err != nil {
		var rb, rt *mpi.RankFailedError
		errors.As(base.err, &rb)
		errors.As(twin.err, &rt)
		if rb.Rank != rt.Rank {
			return h.violation(sc, "determinism", "same seed named different failed ranks: %d vs %d", rb.Rank, rt.Rank)
		}
		return nil
	}
	if len(base.res.Ranks) != len(twin.res.Ranks) {
		return h.violation(sc, "determinism", "same seed completed on %d vs %d ranks", len(base.res.Ranks), len(twin.res.Ranks))
	}
	if base.res.Restarts != twin.res.Restarts {
		return h.violation(sc, "determinism", "same seed restarted %d vs %d times", base.res.Restarts, twin.res.Restarts)
	}
	for i := range base.res.Ranks {
		a, b := base.res.Ranks[i], twin.res.Ranks[i]
		if !equalF64(a.FinalWeights, b.FinalWeights) {
			return h.violation(sc, "determinism", "rank %d final weights differ between two runs of the same seed", i)
		}
		if a.FinalLoss != b.FinalLoss {
			return h.violation(sc, "determinism", "rank %d final loss differs between two runs of the same seed: %v vs %v", i, a.FinalLoss, b.FinalLoss)
		}
	}
	if len(firedAborts(base.fired)) == 0 && len(firedAborts(twin.fired)) == 0 {
		for tid := range base.res.Ranks {
			sa, sb := signature(base.tl, tid), signature(twin.tl, tid)
			if d := diffSeq(sa, sb); d != "" {
				return h.violation(sc, "determinism", "rank %d timeline event sequence differs between two runs of the same seed: %s", tid, d)
			}
		}
	}
	return nil
}

// checkOverlap flips the overlap pipeline and requires bit-identical
// training — the PR's documented equivalence. Parameter-server
// scenarios are skipped (overlap is only wired for the allreduce
// optimizer), as are scenarios whose fault plan aborts worlds.
func (h *Harness) checkOverlap(sc *Scenario, base outcome, exec func(string, Scenario, func(*candle.RunConfig)) outcome) *Violation {
	if sc.ParameterServer || sc.Ranks < 2 || len(sc.abortFaults()) > 0 || base.err != nil {
		return nil
	}
	flip := *sc
	flip.Overlap = !sc.Overlap
	if !flip.Overlap {
		flip.CycleTime = 0
	}
	o := exec("overlap-flip", flip, nil)
	if v := h.classify(&flip, o); v != nil {
		return v
	}
	if o.err != nil {
		return h.violation(sc, "overlap-equivalence", "run with Overlap=%v failed: %v", flip.Overlap, o.err)
	}
	for i := range base.res.Ranks {
		if !equalF64(base.res.Ranks[i].FinalWeights, o.res.Ranks[i].FinalWeights) {
			return h.violation(sc, "overlap-equivalence", "rank %d weights with Overlap=%v are not bit-identical to Overlap=%v", i, sc.Overlap, flip.Overlap)
		}
	}
	return nil
}

// checkDType verifies the documented f32/f64 equivalences: flipping
// the compute precision preserves the collective schedule (same
// allreduce count, same epochs per rank), and checkpoints carry the
// precision they were trained at. Weight closeness is deliberately not
// asserted — rounding drift compounds over epochs by design.
func (h *Harness) checkDType(sc *Scenario, benchName string, base outcome, exec func(string, Scenario, func(*candle.RunConfig)) outcome) *Violation {
	if base.err == nil && sc.Checkpoint && base.res.Root.CheckpointsSaved > 0 {
		snap, err := checkpoint.Latest(base.ckptDir, benchName)
		if err != nil {
			return h.violation(sc, "dtype-equivalence", "base run saved %d checkpoints but none load back: %v", base.res.Root.CheckpointsSaved, err)
		}
		want := "f64"
		if sc.DType == "f32" {
			want = "f32"
		}
		if snap.DType != want {
			return h.violation(sc, "dtype-equivalence", "checkpoint dtype tag is %q, want %q for a %s run", snap.DType, want, want)
		}
	}
	if len(sc.abortFaults()) > 0 || base.err != nil {
		return nil
	}
	flip := *sc
	if sc.DType == "f32" {
		flip.DType = ""
	} else {
		flip.DType = "f32"
	}
	o := exec("dtype-flip", flip, nil)
	if v := h.classify(&flip, o); v != nil {
		return v
	}
	if o.err != nil {
		return h.violation(sc, "dtype-equivalence", "run with DType=%q failed: %v", flip.DType, o.err)
	}
	for i := range base.res.Ranks {
		a, b := base.res.Ranks[i], o.res.Ranks[i]
		if a.AllreduceCalls != b.AllreduceCalls {
			return h.violation(sc, "dtype-equivalence", "rank %d allreduce count changed with precision: %d (f64 side %q) vs %d (%q)",
				i, a.AllreduceCalls, sc.DType, b.AllreduceCalls, flip.DType)
		}
		if a.Epochs != b.Epochs {
			return h.violation(sc, "dtype-equivalence", "rank %d trained %d vs %d epochs across precisions", i, a.Epochs, b.Epochs)
		}
	}
	return nil
}

// checkImportExport runs the checkpoint round trip at f64 (where
// resume is bit-exact; f32 checkpoints store compute-precision
// weights, which the dtype-tag check covers): an uninterrupted
// reference run, an "export" run stopped at the halfway epoch, and an
// "import" run that resumes it with Continue to the full budget. The
// resumed run must land on bit-identical weights.
func (h *Harness) checkImportExport(sc *Scenario, exec func(string, Scenario, func(*candle.RunConfig)) outcome) *Violation {
	ex := *sc
	ex.DType = ""
	ex.Faults = nil
	ex.Elastic = false
	ex.Continue = false
	ex.Checkpoint = true
	ex.CheckpointEvery = 1
	perRank := sc.TotalEpochs
	if !sc.WeakScaling {
		perRank = sc.TotalEpochs / sc.Ranks
	}
	if perRank < 2 {
		perRank = 2
	}
	k := perRank / 2
	total := func(p int) int {
		if ex.WeakScaling {
			return p
		}
		return p * ex.Ranks
	}

	ex.TotalEpochs = total(perRank)
	full := exec("uninterrupted", ex, nil)
	if full.err != nil {
		return h.violation(&ex, "import-export", "uninterrupted reference run failed: %v", full.err)
	}

	half := ex
	half.TotalEpochs = total(k)
	part1 := exec("export", half, nil)
	if part1.err != nil {
		return h.violation(&half, "import-export", "export run failed: %v", part1.err)
	}
	if part1.res.Root.CheckpointsSaved < k {
		return h.violation(&half, "import-export", "export run saved %d checkpoints, want %d", part1.res.Root.CheckpointsSaved, k)
	}

	resume := ex
	resume.Continue = true
	part2 := exec("import", resume, func(cfg *candle.RunConfig) {
		cfg.CheckpointDir = part1.ckptDir
		cfg.Resume = true
	})
	if part2.err != nil {
		return h.violation(&resume, "import-export", "import run failed: %v", part2.err)
	}
	if got, want := part2.res.Root.ResumedFromEpoch, k-1; got != want {
		return h.violation(&resume, "import-export", "import run resumed from epoch %d, want %d", got, want)
	}
	if len(full.res.Ranks) != len(part2.res.Ranks) {
		return h.violation(&resume, "import-export", "rank counts differ: %d vs %d", len(full.res.Ranks), len(part2.res.Ranks))
	}
	for i := range full.res.Ranks {
		a, b := full.res.Ranks[i], part2.res.Ranks[i]
		if !equalF64(a.FinalWeights, b.FinalWeights) {
			return h.violation(&resume, "import-export", "rank %d weights after export@epoch%d+import differ from the uninterrupted run", i, k-1)
		}
		if a.FinalLoss != b.FinalLoss {
			return h.violation(&resume, "import-export", "rank %d final loss differs after round trip: %v vs %v", i, a.FinalLoss, b.FinalLoss)
		}
	}
	return nil
}

// checkTransport flips how the world's ranks are hosted — one process
// of channel links vs two rendezvous'd sessions over Unix sockets —
// and requires bit-identical training, the tentpole's claim that the
// schedule depends only on global rank/size/seed, never on where a
// rank lives. Skipped for odd worlds (no clean two-way split) and for
// aborting fault plans (elastic recovery drops a whole session in the
// multi-process world, one rank in the channel world — an intended
// semantic difference, not an equivalence).
func (h *Harness) checkTransport(sc *Scenario, base outcome, exec func(string, Scenario, func(*candle.RunConfig)) outcome) *Violation {
	if sc.Ranks < 2 || sc.Ranks%2 != 0 || len(sc.abortFaults()) > 0 || base.err != nil {
		return nil
	}
	flip := *sc
	if sc.Transport == "" {
		flip.Transport = "unix"
	} else {
		flip.Transport = ""
	}
	o := exec("transport-flip", flip, nil)
	if v := h.classify(&flip, o); v != nil {
		return v
	}
	if o.err != nil {
		return h.violation(sc, "transport-equivalence", "run with Transport=%q failed: %v", flip.Transport, o.err)
	}
	if len(base.res.Ranks) != len(o.res.Ranks) {
		return h.violation(sc, "transport-equivalence", "rank counts differ across transports: %d vs %d", len(base.res.Ranks), len(o.res.Ranks))
	}
	for i := range base.res.Ranks {
		a, b := base.res.Ranks[i], o.res.Ranks[i]
		if !equalF64(a.FinalWeights, b.FinalWeights) {
			return h.violation(sc, "transport-equivalence", "rank %d weights with Transport=%q are not bit-identical to Transport=%q", i, sc.Transport, flip.Transport)
		}
		if a.FinalLoss != b.FinalLoss {
			return h.violation(sc, "transport-equivalence", "rank %d final loss differs across transports: %v vs %v", i, a.FinalLoss, b.FinalLoss)
		}
		if a.AllreduceCalls != b.AllreduceCalls {
			return h.violation(sc, "transport-equivalence", "rank %d allreduce count changed with the transport: %d vs %d", i, a.AllreduceCalls, b.AllreduceCalls)
		}
	}
	return nil
}

// warmCache populates a sharded-engine binary cache directory with a
// standalone single-process read of both of the benchmark's CSV files
// (the same no-world path CompareLoaders uses).
func warmCache(b *candle.Benchmark, dataDir, cacheDir string) error {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	r, err := csvio.ByName("sharded")
	if err != nil {
		return err
	}
	dl, ok := r.(*dataload.Loader)
	if !ok {
		return fmt.Errorf("scenario: sharded engine resolves to %T", r)
	}
	dl.CacheDir = cacheDir
	train, test := b.Files(dataDir)
	if _, _, err := dl.Read(train); err != nil {
		return err
	}
	_, _, err = dl.Read(test)
	return err
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffSeq reports the first divergence between two event sequences,
// or "" when equal.
func diffSeq(a, b []string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d is %q vs %q (lengths %d vs %d)", i, a[i], b[i], len(a), len(b))
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("lengths differ: %d vs %d (first %d events agree)", len(a), len(b), n)
	}
	return ""
}
