package candle

import (
	"math"
	"testing"

	"candle/internal/data"
	"candle/internal/nn"
)

func TestP2B1BuildsAndSpecs(t *testing.T) {
	full := data.P2B1()
	if full.TrainSamples != 3840 || full.Features != 11340 || full.Kind != data.Autoencoder {
		t.Fatalf("P2B1 spec: %+v", full)
	}
	b, err := Scaled("P2B1", 40, 200)
	if err != nil {
		t.Fatal(err)
	}
	m := b.Build(b.Spec)
	if err := m.Compile(b.Spec.Features, b.Loss, nnOpt(b), 1); err != nil {
		t.Fatal(err)
	}
	if m.OutputDim() != b.Spec.Features {
		t.Fatalf("autoencoder output %d != %d", m.OutputDim(), b.Spec.Features)
	}
}

func TestP3B1BuildsAndSpecs(t *testing.T) {
	full := data.P3B1()
	if full.Vocab != 1000 || full.Classes != 4 || full.Kind != data.TextClassification {
		t.Fatalf("P3B1 spec: %+v", full)
	}
	b, err := Scaled("P3B1", 60, 200)
	if err != nil {
		t.Fatal(err)
	}
	m := b.Build(b.Spec)
	if err := m.Compile(b.Spec.Features, b.Loss, nnOpt(b), 1); err != nil {
		t.Fatal(err)
	}
	if m.OutputDim() != b.Spec.Classes {
		t.Fatalf("classifier output %d != %d", m.OutputDim(), b.Spec.Classes)
	}
}

func TestP2B1TrainsDistributed(t *testing.T) {
	b, err := Scaled("P2B1", 60, 400)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 8); err != nil {
		t.Fatal(err)
	}
	short, err := b.Run(RunConfig{Ranks: 2, TotalEpochs: 2, Batch: 8, LR: 0.01, DataDir: dir, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	long, err := b.Run(RunConfig{Ranks: 2, TotalEpochs: 30, Batch: 8, LR: 0.01, DataDir: dir, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if long.Root.FinalLoss >= short.Root.FinalLoss {
		t.Fatalf("P2B1 loss did not improve: %v -> %v", short.Root.FinalLoss, long.Root.FinalLoss)
	}
	if math.Abs(long.Ranks[1].WeightsChecksum-long.Ranks[0].WeightsChecksum) >
		1e-6*(1+math.Abs(long.Ranks[0].WeightsChecksum)) {
		t.Fatal("P2B1 replicas diverged")
	}
}

func TestP3B1TrainsDistributed(t *testing.T) {
	b, err := Scaled("P3B1", 40, 300)
	if err != nil {
		t.Fatal(err)
	}
	if b.Spec.Features < 8 {
		t.Fatalf("scaled P3B1 sequence too short: %d", b.Spec.Features)
	}
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 9); err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(RunConfig{Ranks: 2, TotalEpochs: 40, Batch: 12, LR: 0.03, DataDir: dir, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Root.TrainAccuracy < 0.8 {
		t.Fatalf("P3B1 accuracy = %v", res.Root.TrainAccuracy)
	}
	if math.Abs(res.Ranks[1].WeightsChecksum-res.Ranks[0].WeightsChecksum) >
		1e-6*(1+math.Abs(res.Ranks[0].WeightsChecksum)) {
		t.Fatal("P3B1 replicas diverged")
	}
}

func TestP3B1TokensSurviveCSVRoundTrip(t *testing.T) {
	b, err := Scaled("P3B1", 120, 300)
	if err != nil {
		t.Fatal(err)
	}
	d, err := data.Generate(b.Spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	x, y, err := data.FromRawCSV(b.Spec, d.RawCSV())
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(d.X) || !y.Equal(d.Y) {
		t.Fatal("token round trip mismatch")
	}
	// Every token must be an exact integer in vocab.
	for _, v := range x.Data {
		if v != math.Trunc(v) || v < 0 || v >= float64(b.Spec.Vocab) {
			t.Fatalf("bad token %v", v)
		}
	}
}

// nnOpt builds the benchmark's configured optimizer for direct Compile
// calls in tests.
func nnOpt(b *Benchmark) nn.Optimizer {
	return nn.NewOptimizer(b.Cal.Optimizer, 0.01)
}
