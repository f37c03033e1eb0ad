package candle

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"candle/internal/csvio"
	"candle/internal/dataload"
	"candle/internal/trace"
)

func TestValidateEngineNames(t *testing.T) {
	if err := (&RunConfig{Engine: "chunked"}).Validate(); err != nil {
		t.Fatalf("Engine alone: %v", err)
	}
	if err := (&RunConfig{}).Validate(); err != nil {
		t.Fatalf("empty config: %v", err)
	}
}

func TestValidateUnknownEngine(t *testing.T) {
	err := (&RunConfig{Engine: "dask"}).Validate()
	var ue *csvio.UnknownEngineError
	if !errors.As(err, &ue) {
		t.Fatalf("unknown engine error: %v", err)
	}
	if _, err := (&Benchmark{}).Run(RunConfig{Ranks: 1, TotalEpochs: 1, Engine: "dask"}); !errors.As(err, &ue) {
		t.Fatalf("Run with unknown engine: %v", err)
	}
}

// TestRunShardedEngineMatchesNaive: training on the sharded pipeline
// is bit-identical to training on the naive loader — same data, same
// seed, same weights — and the second run is served from the cache.
func TestRunShardedEngineMatchesNaive(t *testing.T) {
	b, err := Scaled("NT3", 40, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 5); err != nil {
		t.Fatal(err)
	}
	run := func(engine string, cacheDir string, tl *trace.Timeline) *RunResult {
		res, err := b.Run(RunConfig{
			Ranks: 2, TotalEpochs: 4, Batch: 7, LR: 0.05, Seed: 11,
			DataDir: dir, Engine: engine, CacheDir: cacheDir, Timeline: tl,
		})
		if err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		return res
	}

	naive := run("naive", "", nil)

	cacheDir := t.TempDir()
	coldTL := trace.NewTimeline()
	cold := run("sharded", cacheDir, coldTL)
	if got, want := cold.Root.WeightsChecksum, naive.Root.WeightsChecksum; math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("sharded weights %v differ from naive %v — data pipelines are not bit-identical", got, want)
	}
	shards := coldTL.Filter("load_shard")
	if len(shards) < 2 {
		t.Fatalf("cold sharded run recorded %d load_shard spans, want one per rank per file", len(shards))
	}
	ranksSeen := map[int]bool{}
	for _, e := range shards {
		ranksSeen[e.TID] = true
	}
	if !ranksSeen[0] || !ranksSeen[1] {
		t.Fatalf("load_shard spans missing a rank: %v", ranksSeen)
	}
	if _, err := filepath.Glob(filepath.Join(cacheDir, "*.bin")); err != nil {
		t.Fatal(err)
	}

	warmTL := trace.NewTimeline()
	warm := run("sharded", cacheDir, warmTL)
	if len(warmTL.Filter("cache_hit")) == 0 {
		t.Fatal("warm sharded run recorded no cache_hit spans")
	}
	if got, want := warm.Root.WeightsChecksum, naive.Root.WeightsChecksum; math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("cache-served weights %v differ from naive %v", got, want)
	}
}

// TestShardedEngineRegisteredViaRunner: the runner package links
// internal/dataload, so "sharded" resolves for anything importing
// candle (the CLIs).
func TestShardedEngineRegisteredViaRunner(t *testing.T) {
	r, err := csvio.ByName(dataload.EngineName)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*dataload.Loader); !ok {
		t.Fatalf("sharded engine resolves to %T", r)
	}
}

// TestShardedNegotiateBroadcastNoWorse: the paper reads rank skew off
// the negotiate_broadcast span — the barrier wait before the initial
// weight broadcast. Under the naive engine every rank parses the whole
// file independently and arrives at the barrier with its own parse
// jitter; the sharded exchange synchronizes ranks at the end of phase
// 1, so they reach the barrier together. That is an order of events,
// checked on the run's own timeline: no rank's data_loading span ends
// before the last rank's load_shard span has. How much wait it saves
// is the benchmark's to measure (load_cold).
func TestShardedNegotiateBroadcastNoWorse(t *testing.T) {
	b, err := Scaled("NT3", 40, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 5); err != nil {
		t.Fatal(err)
	}
	const ranks = 4
	tl := trace.NewTimeline()
	if _, err := b.Run(RunConfig{
		Ranks: ranks, TotalEpochs: 4, Batch: 7, Seed: 11, LR: 0.05,
		DataDir: dir, Engine: "sharded", CacheDir: t.TempDir(), Timeline: tl,
	}); err != nil {
		t.Fatal(err)
	}
	lastShard := 0.0
	parsed := map[int]bool{}
	for _, e := range tl.Filter("load_shard") {
		parsed[e.TID] = true
		lastShard = math.Max(lastShard, e.Start+e.Dur)
	}
	if len(parsed) != ranks {
		t.Fatalf("load_shard spans from %d ranks, want all %d (a cold run parses on every rank)", len(parsed), ranks)
	}
	loads := tl.Filter("data_loading")
	if len(loads) != ranks {
		t.Fatalf("%d data_loading spans, want one per rank", len(loads))
	}
	for _, e := range loads {
		if end := e.Start + e.Dur; end < lastShard {
			t.Errorf("rank %d left phase 1 at %.6fs, before the last shard was parsed at %.6fs", e.TID, end, lastShard)
		}
	}
}
