package scenario

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"candle/internal/candle"
	"candle/internal/csvio"
)

// TestSampleIsDeterministic: the sampler is a pure function of the
// seed — the property the whole repro story rests on.
func TestSampleIsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := Sample(seed), Sample(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d sampled two different scenarios:\n%s\n%s", seed, a.Describe(), b.Describe())
		}
	}
	if reflect.DeepEqual(Sample(1), Sample(2)) {
		t.Fatal("seeds 1 and 2 drew identical scenarios — sampler ignores the seed?")
	}
}

// TestSampleRespectsConstraints: the documented sampler constraints
// that keep scenarios inside the invariants' reach.
func TestSampleRespectsConstraints(t *testing.T) {
	engines := map[string]bool{}
	for _, e := range csvio.Engines() {
		engines[e] = true
	}
	sawTransport, sawSocketAbort := false, false
	for seed := int64(1); seed <= 500; seed++ {
		sc := Sample(seed)
		if sc.Ranks < 1 || sc.Ranks > 4 {
			t.Fatalf("seed %d: ranks %d out of range", seed, sc.Ranks)
		}
		if sc.Transport != "" {
			sawTransport = true
			if sc.Transport != "unix" {
				t.Fatalf("seed %d: unknown transport %q", seed, sc.Transport)
			}
			if sc.Ranks%2 != 0 {
				t.Fatalf("seed %d: transport split on an odd %d-rank world", seed, sc.Ranks)
			}
			// A failure there costs a whole session: the survivors
			// must be able to absorb every drawn abort.
			if len(sc.abortFaults()) >= socketProcs {
				t.Fatalf("seed %d: more aborting faults than the sessions absorb: %s", seed, sc.Describe())
			}
			if len(sc.abortFaults()) > 0 {
				sawSocketAbort = true
			}
		}
		perRank := sc.TotalEpochs
		if !sc.WeakScaling {
			if sc.TotalEpochs%sc.Ranks != 0 {
				t.Fatalf("seed %d: epochs %d not a multiple of ranks %d", seed, sc.TotalEpochs, sc.Ranks)
			}
			perRank = sc.TotalEpochs / sc.Ranks
		}
		if perRank < 1 {
			t.Fatalf("seed %d: %d epochs per rank", seed, perRank)
		}
		if !engines[sc.Engine] {
			t.Fatalf("seed %d: engine %q not registered", seed, sc.Engine)
		}
		if sc.UseCache && sc.Engine != "sharded" {
			t.Fatalf("seed %d: cache without sharded engine", seed)
		}
		if sc.Continue && !sc.Checkpoint {
			t.Fatalf("seed %d: Continue without checkpointing", seed)
		}
		if sc.ParameterServer && sc.Overlap {
			t.Fatalf("seed %d: overlap wired with parameter server", seed)
		}
		var kills, aborts int
		killSteps := []int{}
		for _, f := range sc.Faults {
			if f.Kind == "kill" {
				kills++
				killSteps = append(killSteps, f.Step)
			}
			if f.aborts() {
				aborts++
			}
			if f.Rank < 0 || f.Rank >= sc.Ranks {
				t.Fatalf("seed %d: fault %s targets rank outside the world", seed, f)
			}
		}
		if kills >= sc.Ranks && sc.Ranks > 0 && kills > 0 {
			t.Fatalf("seed %d: %d kills on %d ranks can exhaust the world", seed, kills, sc.Ranks)
		}
		if aborts > 1 {
			// Only the elastic second-kill form is allowed, and it must
			// be step-separated so it fires in the restarted world.
			if aborts > 2 || kills != 2 || !sc.Elastic {
				t.Fatalf("seed %d: %d aborting faults drawn: %s", seed, aborts, sc.Describe())
			}
			if killSteps[1] < killSteps[0]+2 {
				t.Fatalf("seed %d: second kill at step %d too close to first at %d", seed, killSteps[1], killSteps[0])
			}
		}
	}
	if !sawTransport {
		t.Fatal("500 seeds never drew the multi-process transport dimension")
	}
	if !sawSocketAbort {
		t.Fatal("500 seeds never drew an aborting fault on the multi-process world")
	}
}

func TestParseChecks(t *testing.T) {
	all, err := ParseChecks("all")
	if err != nil || all != AllChecks() {
		t.Fatalf("all: %+v, %v", all, err)
	}
	det, err := ParseChecks("nondeterminism")
	if err != nil || !det.Determinism || det.ImportExport {
		t.Fatalf("nondeterminism: %+v, %v", det, err)
	}
	tr, err := ParseChecks("transport")
	if err != nil || !tr.Transport || tr.Determinism {
		t.Fatalf("transport: %+v, %v", tr, err)
	}
	if _, err := ParseChecks("bogus"); err == nil {
		t.Fatal("unknown check accepted")
	}
}

// quickScenario is a hand-built scenario small enough for planted
// violation tests: 2 ranks, 1 epoch each, naive engine.
func quickScenario(faults ...FaultSpec) Scenario {
	return Scenario{
		Seed: 7, Pilot: "NT3", Ranks: 2, TotalEpochs: 2, Batch: 7,
		LR: 0.02, Engine: "naive", Faults: faults,
	}
}

// TestPlantedViolationIsCaught is the acceptance criterion for the
// harness itself: wrap the real runner with a bug that swallows the
// typed rank-failure error, and the fault-outcome invariant must flag
// it — a scripted kill fired, Elastic is off, yet the run "completed"
// — and the failure must print a candle sim repro line.
func TestPlantedViolationIsCaught(t *testing.T) {
	h := &Harness{
		Timeout: time.Minute,
		Run: func(b *candle.Benchmark, cfg candle.RunConfig) (*candle.RunResult, error) {
			res, err := b.Run(cfg)
			if err != nil {
				// The planted bug: report success instead of surfacing
				// the failure.
				return &candle.RunResult{Ranks: []candle.RankResult{{}}, Root: candle.RankResult{}}, nil
			}
			return res, nil
		},
	}
	// Step 2 is the first gradient allreduce; rank 1 dies there.
	sc := quickScenario(FaultSpec{Kind: "kill", Rank: 1, Step: 2})
	err := h.Check(sc, Checks{})
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("planted violation not caught: %v", err)
	}
	if v.Invariant != "fault-outcome" {
		t.Fatalf("violation filed under %q, want fault-outcome: %v", v.Invariant, v)
	}
	if !strings.Contains(err.Error(), "candle sim -seed 7") {
		t.Fatalf("violation lacks the repro line: %v", err)
	}
}

// TestCleanScenarioPasses: the same quick scenario without the planted
// bug and without faults sails through the base classification.
func TestCleanScenarioPasses(t *testing.T) {
	h := &Harness{Timeout: time.Minute}
	if err := h.Check(quickScenario(), Checks{}); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogConvertsHangToDeadlockError: a runner that never returns
// (a scripted never-recovering hang) must surface as a typed
// *DeadlockError carrying goroutine stacks, within the bounded
// timeout, instead of hanging the harness.
func TestWatchdogConvertsHangToDeadlockError(t *testing.T) {
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	h := &Harness{
		Timeout: 100 * time.Millisecond,
		Run: func(b *candle.Benchmark, cfg candle.RunConfig) (*candle.RunResult, error) {
			<-block
			return nil, errors.New("unreachable")
		},
	}
	start := time.Now()
	err := h.Check(quickScenario(), Checks{})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("hang did not surface as DeadlockError: %v", err)
	}
	if dl.Seed != 7 || dl.Phase != "base" || dl.Timeout != 100*time.Millisecond {
		t.Fatalf("DeadlockError fields: %+v", dl)
	}
	if !strings.Contains(dl.Stacks, "goroutine") {
		t.Fatal("DeadlockError carries no goroutine stacks")
	}
	var v *Violation
	if !errors.As(err, &v) || v.Invariant != "no-hang" {
		t.Fatalf("deadlock not filed as a no-hang violation: %v", err)
	}
}

// TestTransportCheckPasses: the transport-equivalence invariant holds
// for the real system — a channel-world scenario re-run as two
// socket-linked sessions trains bit-identically, and a multi-process
// base scenario flips back cleanly.
func TestTransportCheckPasses(t *testing.T) {
	h := &Harness{Timeout: time.Minute}
	if err := h.Check(quickScenario(), Checks{Transport: true}); err != nil {
		t.Fatal(err)
	}
	sc := quickScenario()
	sc.Transport = "unix"
	if err := h.Check(sc, Checks{Transport: true}); err != nil {
		t.Fatal(err)
	}
}

// TestTransportViolationIsCaught plants a run wrapper whose
// multi-process path perturbs one weight; the transport-equivalence
// invariant must flag the divergence.
func TestTransportViolationIsCaught(t *testing.T) {
	h := &Harness{
		Timeout: time.Minute,
		Run: func(b *candle.Benchmark, cfg candle.RunConfig) (*candle.RunResult, error) {
			if cfg.Transport != "" && cfg.Transport != "inproc" {
				res, err := b.RunMultiProc(cfg, 2)
				if err == nil && len(res.Ranks) > 0 && len(res.Ranks[0].FinalWeights) > 0 {
					res.Ranks[0].FinalWeights[0] += 1e-9 // the planted bug
				}
				return res, err
			}
			return b.Run(cfg)
		},
	}
	err := h.Check(quickScenario(), Checks{Transport: true})
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("planted transport divergence not caught: %v", err)
	}
	// The flipped run's own classification catches the divergence first
	// (replicas no longer bit-identical) or the equivalence check does;
	// either way it must be attributed to one of the two invariants.
	if v.Invariant != "transport-equivalence" && v.Invariant != "sanity" {
		t.Fatalf("violation filed under %q: %v", v.Invariant, v)
	}
}

// TestShrinkFaultsFindsMinimalPlan: a failing scenario whose plan
// mixes the culprit kill with two irrelevant delays shrinks to just
// the kill, still failing.
func TestShrinkFaultsFindsMinimalPlan(t *testing.T) {
	h := &Harness{
		Timeout: time.Minute,
		Run: func(b *candle.Benchmark, cfg candle.RunConfig) (*candle.RunResult, error) {
			res, err := b.Run(cfg)
			if err != nil {
				return &candle.RunResult{Ranks: []candle.RankResult{{}}, Root: candle.RankResult{}}, nil
			}
			return res, nil
		},
	}
	sc := quickScenario(
		FaultSpec{Kind: "delay", Rank: 0, Step: 1, DelayMs: 1},
		FaultSpec{Kind: "kill", Rank: 1, Step: 2},
		FaultSpec{Kind: "delay", Rank: 1, Step: 3, DelayMs: 1},
	)
	min, err := h.ShrinkFaults(sc, Checks{})
	if err == nil {
		t.Fatal("shrink lost the failure")
	}
	if len(min.Faults) != 1 || min.Faults[0].Kind != "kill" {
		t.Fatalf("minimal plan = %v, want just the kill", min.Faults)
	}
	// A passing scenario shrinks to itself with no error.
	same, err := h.ShrinkFaults(quickScenario(), Checks{})
	if err != nil || len(same.Faults) != 0 {
		t.Fatalf("clean scenario: %v, %v", same.Faults, err)
	}
}

// TestPinnedSeedFullSuite is the in-test twin of `make sim-smoke`: one
// pinned seed through every invariant family, with verbose narration
// captured for debuggability.
func TestPinnedSeedFullSuite(t *testing.T) {
	var log bytes.Buffer
	h := &Harness{Timeout: 2 * time.Minute, Log: &log}
	if err := h.CheckSeed(1, AllChecks()); err != nil {
		t.Fatalf("%v\nnarration:\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "scenario: seed=1") {
		t.Fatalf("narration missing scenario line:\n%s", log.String())
	}
}
