package checkpoint

import (
	"math/rand"
	"os"
	"testing"

	"candle/internal/nn"
	"candle/internal/tensor"
)

// TestLatestLoadsPreDTypeAndRoundTrips: a snapshot with no DType set
// saves as a dtype-tagged f64 v2 file, and Latest loads it back as f64
// with identical weights.
func TestLatestLoadsPreDTypeAndRoundTrips(t *testing.T) {
	dir := t.TempDir()
	orig := &Snapshot{
		Benchmark: "P1B1", Epoch: 3, Step: 30,
		Weights: []float64{0.25, -1.75, 3.5}, Loss: 0.125,
	}
	path := FileFor(dir, "P1B1", 3)
	if err := Save(path, orig); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:4]) != magicV2 || raw[4] != tagF64 {
		t.Fatalf("saved file not dtype-tagged: header %q tag %d", raw[:4], raw[4])
	}
	again, err := Latest(dir, "P1B1")
	if err != nil {
		t.Fatal(err)
	}
	if again.DType != "f64" || again.DTypeOrDefault() != tensor.F64 || again.Epoch != 3 {
		t.Fatalf("round-tripped snapshot wrong: %+v", again)
	}
	for i, v := range orig.Weights {
		if again.WeightsF64()[i] != v {
			t.Fatalf("weight %d changed across round-trip: %v != %v", i, again.WeightsF64()[i], v)
		}
	}
}

// TestF32SnapshotSaveLoadRestore covers the new half-size f32 format:
// the header carries the f32 tag, WeightsF64 promotes, and Restore
// loads the promoted weights into a model bit-exactly at f32
// precision.
func TestF32SnapshotSaveLoadRestore(t *testing.T) {
	dir := t.TempDir()
	s := &Snapshot{
		Benchmark: "NT3", Epoch: 1, Step: 10, DType: "f32",
		Weights32: []float32{1.5, -0.25, 2.5, 0.75}, Loss: 1,
	}
	path := FileFor(dir, "NT3", 1)
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != tagF32 {
		t.Fatalf("f32 snapshot tagged %d", raw[4])
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.DTypeOrDefault() != tensor.F32 {
		t.Fatalf("loaded dtype %v", got.DTypeOrDefault())
	}
	w := got.WeightsF64()
	for i, v := range s.Weights32 {
		if w[i] != float64(v) {
			t.Fatalf("promoted weight %d = %v, want %v", i, w[i], float64(v))
		}
	}

	// Restore promotes into a compiled model.
	m := nn.NewSequential("tiny", nn.NewDense(1))
	if err := m.Compile(3, nn.MeanSquaredError{}, nn.NewSGD(0.1), 1); err != nil {
		t.Fatal(err)
	}
	if err := Restore(m, got, "NT3"); err != nil {
		t.Fatal(err)
	}
	if mv := m.WeightsVector(); mv[0] != 1.5 || mv[3] != 0.75 {
		t.Fatalf("restored weights wrong: %v", mv)
	}
}

// TestCallbackSavesAtModelDType: an f32-compiled model checkpoints
// with f32 weights; an f64 model keeps the f64 vector. Both restore.
func TestCallbackSavesAtModelDType(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		dir := t.TempDir()
		m := nn.NewSequential("cb", nn.NewDense(4), nn.NewReLU(), nn.NewDense(2))
		if err := m.SetDType(dt); err != nil {
			t.Fatal(err)
		}
		if err := m.Compile(6, nn.MeanSquaredError{}, nn.NewSGD(0.05), 7); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		x := tensor.RandNormal(rng, 8, 6, 1)
		y := tensor.RandNormal(rng, 8, 2, 1)
		cb := NewCallback(dir, "cb", 1, 0)
		if _, err := m.Fit(x, y, nn.FitConfig{Epochs: 1, BatchSize: 4, Callbacks: []nn.Callback{cb}}); err != nil {
			t.Fatal(err)
		}
		if cb.Saves != 1 || cb.Err != nil {
			t.Fatalf("dtype %v: saves=%d err=%v", dt, cb.Saves, cb.Err)
		}
		s, err := Latest(dir, "cb")
		if err != nil {
			t.Fatal(err)
		}
		if s.DTypeOrDefault() != dt {
			t.Fatalf("snapshot dtype %v, model %v", s.DTypeOrDefault(), dt)
		}
		if dt == tensor.F32 && (len(s.Weights32) == 0 || len(s.Weights) != 0) {
			t.Fatalf("f32 snapshot stored wrong vectors: %d f32, %d f64", len(s.Weights32), len(s.Weights))
		}
		if err := Restore(m, s, "cb"); err != nil {
			t.Fatal(err)
		}
	}
}
