package candle

import (
	"math"
	"math/rand"
	"testing"

	"candle/internal/nn"
	"candle/internal/tensor"
)

// close32 is the f32-vs-f64 agreement tolerance: float32 rounding
// scales with magnitude and with the depth of the reductions these
// models chain (matmuls, BPTT, softmax).
func close32(a, b float64) bool {
	return math.Abs(a-b) <= 1e-3+5e-3*math.Max(math.Abs(a), math.Abs(b))
}

// TestF32MatchesF64OnAllPilotShapes is the pilot-shape property test:
// for each of the four benchmarks' real architectures (conv+LSTM,
// autoencoder, classifier, signature net), an f32-compiled twin and
// the f64 reference must agree on forward outputs, loss, and every
// parameter gradient within float32 tolerance.
func TestF32MatchesF64OnAllPilotShapes(t *testing.T) {
	for _, name := range pilot1 {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := Scaled(name, 60, 2000)
			if err != nil {
				t.Fatal(err)
			}
			m64 := b.Build(b.Spec)
			m32 := b.Build(b.Spec)
			if err := m32.SetDType(tensor.F32); err != nil {
				t.Fatal(err)
			}
			for _, m := range []*nn.Sequential{m64, m32} {
				if err := m.Compile(b.Spec.Features, b.Loss, nn.NewSGD(0.01), 99); err != nil {
					t.Fatal(err)
				}
			}

			rng := rand.New(rand.NewSource(7))
			const batch = 6
			x := tensor.RandNormal(rng, batch, b.Spec.Features, 1)
			ref := m64.Forward(x, false)
			got := m32.Forward(x, false)
			if got.Rows != ref.Rows || got.Cols != ref.Cols {
				t.Fatalf("forward shape %dx%d != %dx%d", got.Rows, got.Cols, ref.Rows, ref.Cols)
			}
			for i := range ref.Data {
				if !close32(got.Data[i], ref.Data[i]) {
					t.Fatalf("forward[%d] = %v, f64 reference %v", i, got.Data[i], ref.Data[i])
				}
			}

			// Targets shaped for the benchmark's loss: one-hot rows for
			// the cross-entropy classifiers, dense targets for the MSE
			// reconstruction nets.
			y := tensor.New(batch, ref.Cols)
			switch b.Loss.(type) {
			case nn.CategoricalCrossEntropy:
				for i := 0; i < batch; i++ {
					y.Set(i, rng.Intn(ref.Cols), 1)
				}
			default:
				y = tensor.RandNormal(rng, batch, ref.Cols, 1)
			}
			l64 := m64.GradientsOnly(x, y)
			l32 := m32.GradientsOnly(x, y)
			if !close32(l32, l64) {
				t.Fatalf("loss %v (f32) vs %v (f64)", l32, l64)
			}
			p32, p64 := m32.Params(), m64.Params()
			if len(p32) != len(p64) {
				t.Fatalf("param count %d != %d", len(p32), len(p64))
			}
			for i := range p64 {
				g32, g64 := p32[i].Grad, p64[i].Grad
				for j := range g64.Data {
					if !close32(g32.Data[j], g64.Data[j]) {
						t.Fatalf("grad %s[%d] = %v, f64 reference %v",
							p64[i].Name, j, g32.Data[j], g64.Data[j])
					}
				}
			}
		})
	}
}

// TestF32RealRunTrains drives the full three-phase runner at f32 on
// the smallest pilot and checks training is sane and checkpoints carry
// the f32 tag.
func TestF32RealRunTrains(t *testing.T) {
	b, err := Scaled("P1B1", 60, 2000)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := b.PrepareData(dir, 2); err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(RunConfig{
		Ranks: 2, TotalEpochs: 6, Batch: 5, DataDir: dir, Seed: 4, DType: "f32",
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Root.FinalLoss) || math.IsInf(res.Root.FinalLoss, 0) {
		t.Fatalf("f32 loss exploded: %v", res.Root.FinalLoss)
	}
	if math.Abs(res.Ranks[1].WeightsChecksum-res.Ranks[0].WeightsChecksum) >
		1e-6*(1+math.Abs(res.Ranks[0].WeightsChecksum)) {
		t.Fatal("f32 replicas diverged")
	}
}

// TestRunConfigRejectsBadDType: a typo'd precision fails fast in
// Validate, not mid-run.
func TestRunConfigRejectsBadDType(t *testing.T) {
	cfg := RunConfig{DType: "f16"}
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad dtype accepted")
	}
}
