package nn

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"candle/internal/tensor"
)

func TestLSTMShapes(t *testing.T) {
	m := buildModel(t, 12, MeanSquaredError{}, NewSGD(0.1), NewLSTM(5, 3)) // 4 steps × 3 features
	out := m.Forward(tensor.New(7, 12), false)
	if out.Rows != 7 || out.Cols != 5 {
		t.Fatalf("lstm out %dx%d, want 7x5", out.Rows, out.Cols)
	}
	// Params: Wx 3×20, Wh 5×20, b 1×20.
	if m.ParamCount() != 3*20+5*20+20 {
		t.Fatalf("param count = %d", m.ParamCount())
	}
}

func TestLSTMBuildErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewLSTM(4, 3).Build(rng, 10); err == nil {
		t.Fatal("indivisible step width accepted")
	}
	if _, err := NewLSTM(0, 3).Build(rng, 9); err == nil {
		t.Fatal("zero units accepted")
	}
}

func TestLSTMForgetBiasInit(t *testing.T) {
	l := NewLSTM(3, 2)
	if _, err := l.Build(rand.New(rand.NewSource(2)), 6); err != nil {
		t.Fatal(err)
	}
	b := l.Params()[2].Value.Data
	for u := 0; u < 3; u++ {
		if b[u] != 0 || b[3+u] != 1 || b[6+u] != 0 || b[9+u] != 0 {
			t.Fatalf("bias init wrong: %v", b)
		}
	}
}

func TestGradCheckLSTM(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	// 3 steps × 2 features → LSTM(3) → Dense(2).
	m := buildModel(t, 6, MeanSquaredError{}, NewSGD(0.1), NewLSTM(3, 2), NewDense(2))
	x := tensor.RandNormal(rng, 4, 6, 1)
	y := tensor.RandNormal(rng, 4, 2, 1)
	checkGradients(t, m, MeanSquaredError{}, x, y, 2e-4)
}

func TestGradCheckLSTMSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := buildModel(t, 8, CategoricalCrossEntropy{}, NewSGD(0.1),
		NewLSTM(4, 2), NewDense(3), NewSoftmax())
	x := tensor.RandNormal(rng, 3, 8, 1)
	y := tensor.New(3, 3)
	for i := 0; i < 3; i++ {
		y.Set(i, i%3, 1)
	}
	checkGradients(t, m, CategoricalCrossEntropy{}, x, y, 2e-4)
}

// TestLSTMWeightsPinned holds the recurrence and BPTT to the bits they
// produced when the f64 and f32 paths were two hand-written copies
// (recorded at commit dd66b27): a fixed-seed LSTM(8,3)+Dense(2) trained
// three steps must end at the same weights in both precisions.
func TestLSTMWeightsPinned(t *testing.T) {
	for _, tc := range []struct {
		dtype tensor.DType
		want  uint64
	}{
		{tensor.F64, 0xc376fa7c7a4b3739},
		{tensor.F32, 0x134445a8d41f484e},
	} {
		m := NewSequential("pinned-lstm", NewLSTM(8, 3), NewDense(2))
		if err := m.SetDType(tc.dtype); err != nil {
			t.Fatal(err)
		}
		if err := m.Compile(4*3, MeanSquaredError{}, NewSGD(0.05), 42); err != nil { // 4 steps × 3 features
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(61))
		x := tensor.RandNormal(rng, 5, 12, 1)
		y := tensor.RandNormal(rng, 5, 2, 1)
		for i := 0; i < 3; i++ {
			m.TrainBatch(x, y)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, w := range m.WeightsVector() {
			bits := math.Float64bits(w)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s LSTM final-weights checksum = %#x, want %#x", tc.dtype, got, tc.want)
		}
	}
}

func TestLSTMLearnsOrderSensitiveTask(t *testing.T) {
	// Classify whether the "spike" appears in the first or second half
	// of the sequence — impossible for a bag-of-steps model, easy for
	// an LSTM... and crucially order-sensitive.
	rng := rand.New(rand.NewSource(52))
	const steps, feat = 8, 1
	n := 160
	x := tensor.New(n, steps*feat)
	y := tensor.New(n, 2)
	for i := 0; i < n; i++ {
		cls := i % 2
		pos := rng.Intn(steps / 2)
		if cls == 1 {
			pos += steps / 2
		}
		for s := 0; s < steps; s++ {
			x.Set(i, s, rng.NormFloat64()*0.1)
		}
		x.Set(i, pos, 3)
		y.Set(i, cls, 1)
	}
	m := buildModel(t, steps*feat, CategoricalCrossEntropy{}, NewAdam(0.02),
		NewLSTM(8, feat), NewDense(2), NewSoftmax())
	hist, err := m.Fit(x, y, FitConfig{Epochs: 40, BatchSize: 16, Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	if acc := hist.Acc[len(hist.Acc)-1]; acc < 0.95 {
		t.Fatalf("LSTM accuracy %v on order task", acc)
	}
}

func TestEmbeddingForwardGather(t *testing.T) {
	e := NewEmbedding(5, 2)
	if _, err := e.Build(rand.New(rand.NewSource(3)), 3); err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice(2, 3, []float64{0, 2, 4, 1, 1, 3})
	out := e.Forward(x, true)
	if out.Cols != 6 {
		t.Fatalf("out cols = %d", out.Cols)
	}
	w := e.Params()[0].Value
	for j := 0; j < 2; j++ {
		if out.At(0, j) != w.At(0, j) || out.At(0, 2+j) != w.At(2, j) || out.At(0, 4+j) != w.At(4, j) {
			t.Fatal("gather wrong for row 0")
		}
		if out.At(1, j) != w.At(1, j) || out.At(1, 2+j) != w.At(1, j) {
			t.Fatal("gather wrong for repeated token")
		}
	}
}

func TestEmbeddingBackwardScatterAdd(t *testing.T) {
	e := NewEmbedding(4, 2)
	if _, err := e.Build(rand.New(rand.NewSource(4)), 2); err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice(1, 2, []float64{1, 1}) // same token twice
	e.Forward(x, true)
	dout := tensor.FromSlice(1, 4, []float64{1, 2, 3, 4})
	e.Backward(dout)
	g := e.Params()[0].Grad
	// Token 1 receives both segments summed: [1+3, 2+4].
	if g.At(1, 0) != 4 || g.At(1, 1) != 6 {
		t.Fatalf("scatter-add wrong: %v", g.Row(1))
	}
	if g.At(0, 0) != 0 || g.At(2, 0) != 0 {
		t.Fatal("untouched tokens got gradient")
	}
}

func TestEmbeddingRejectsOutOfVocab(t *testing.T) {
	e := NewEmbedding(3, 2)
	if _, err := e.Build(rand.New(rand.NewSource(5)), 1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Forward(tensor.FromSlice(1, 1, []float64{7}), true)
}

func TestEmbeddingLSTMPipelineLearns(t *testing.T) {
	// Token-sequence classification: class decided by which marker
	// token appears (P3-style clinical-text analogue).
	rng := rand.New(rand.NewSource(53))
	const vocab, seqLen = 20, 6
	n := 120
	x := tensor.New(n, seqLen)
	y := tensor.New(n, 2)
	for i := 0; i < n; i++ {
		cls := i % 2
		for s := 0; s < seqLen; s++ {
			x.Set(i, s, float64(2+rng.Intn(vocab-2)))
		}
		marker := float64(cls) // token 0 or 1
		x.Set(i, rng.Intn(seqLen), marker)
		y.Set(i, cls, 1)
	}
	m := buildModel(t, seqLen, CategoricalCrossEntropy{}, NewAdam(0.03),
		NewEmbedding(vocab, 4), NewLSTM(8, 4), NewDense(2), NewSoftmax())
	hist, err := m.Fit(x, y, FitConfig{Epochs: 35, BatchSize: 12, Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	if acc := hist.Acc[len(hist.Acc)-1]; acc < 0.9 {
		t.Fatalf("embedding+LSTM accuracy %v", acc)
	}
}

func TestBatchNormNormalizesTrainingBatch(t *testing.T) {
	bn := NewBatchNorm()
	if _, err := bn.Build(rand.New(rand.NewSource(6)), 3); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandNormal(rng, 64, 3, 5)
	x.AddRowVector([]float64{10, -4, 0.5})
	out := bn.Forward(x, true)
	// Per-feature mean ≈ 0, variance ≈ 1 (γ=1, β=0 at init).
	for j := 0; j < 3; j++ {
		mean, varr := 0.0, 0.0
		for r := 0; r < out.Rows; r++ {
			mean += out.At(r, j)
		}
		mean /= float64(out.Rows)
		for r := 0; r < out.Rows; r++ {
			d := out.At(r, j) - mean
			varr += d * d
		}
		varr /= float64(out.Rows)
		if math.Abs(mean) > 1e-9 || math.Abs(varr-1) > 1e-2 {
			t.Fatalf("feature %d: mean %v var %v", j, mean, varr)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm()
	if _, err := bn.Build(rand.New(rand.NewSource(8)), 2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	// Train on shifted data so running stats move.
	for i := 0; i < 30; i++ {
		x := tensor.RandNormal(rng, 32, 2, 1)
		x.AddRowVector([]float64{5, -5})
		bn.Forward(x, true)
	}
	// Inference on the same distribution: output should be roughly
	// standardized.
	x := tensor.RandNormal(rng, 200, 2, 1)
	x.AddRowVector([]float64{5, -5})
	out := bn.Forward(x, false)
	for j := 0; j < 2; j++ {
		mean := 0.0
		for r := 0; r < out.Rows; r++ {
			mean += out.At(r, j)
		}
		mean /= float64(out.Rows)
		if math.Abs(mean) > 0.25 {
			t.Fatalf("inference mean %v for feature %d", mean, j)
		}
	}
}

func TestGradCheckBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	m := buildModel(t, 3, MeanSquaredError{}, NewSGD(0.1),
		NewDense(4), NewBatchNorm(), NewActivation("tanh"), NewDense(2))
	x := tensor.RandNormal(rng, 6, 3, 1)
	y := tensor.RandNormal(rng, 6, 2, 1)
	// Gradient check must run the TRAINING forward (batch statistics);
	// checkGradients uses Forward(training=false), so do it manually.
	m.ZeroGrads()
	pred := m.Forward(x, true)
	_, g := MeanSquaredError{}.Compute(pred, y)
	m.Backward(g)
	analytic := make([][]float64, 0, len(m.Params()))
	for _, p := range m.Params() {
		cp := make([]float64, len(p.Grad.Data))
		copy(cp, p.Grad.Data)
		analytic = append(analytic, cp)
	}
	const h = 1e-6
	for pi, p := range m.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			lp, _ := MeanSquaredError{}.Compute(m.Forward(x, true), y)
			p.Value.Data[i] = orig - h
			lm, _ := MeanSquaredError{}.Compute(m.Forward(x, true), y)
			p.Value.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-analytic[pi][i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param %d[%d]: analytic %v vs numerical %v", pi, i, analytic[pi][i], num)
			}
		}
	}
}

func TestBatchNormBackwardBeforeForwardPanics(t *testing.T) {
	bn := NewBatchNorm()
	if _, err := bn.Build(rand.New(rand.NewSource(10)), 2); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bn.Backward(tensor.New(1, 2))
}
