package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"candle/internal/tensor"
)

// buildModel compiles a small model or fails the test.
func buildModel(t *testing.T, inDim int, loss Loss, opt Optimizer, layers ...Layer) *Sequential {
	t.Helper()
	m := NewSequential("test", layers...)
	if err := m.Compile(inDim, loss, opt, 42); err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return m
}

func TestDenseShapes(t *testing.T) {
	m := buildModel(t, 5, MeanSquaredError{}, NewSGD(0.1), NewDense(3))
	out := m.Forward(tensor.New(7, 5), false)
	if out.Rows != 7 || out.Cols != 3 {
		t.Fatalf("dense output %dx%d, want 7x3", out.Rows, out.Cols)
	}
	if m.ParamCount() != 5*3+3 {
		t.Fatalf("ParamCount = %d, want 18", m.ParamCount())
	}
}

func TestCompileErrors(t *testing.T) {
	if err := NewSequential("x").Compile(3, MeanSquaredError{}, NewSGD(0.1), 1); err == nil {
		t.Fatal("empty model compiled")
	}
	if err := NewSequential("x", NewDense(0)).Compile(3, MeanSquaredError{}, NewSGD(0.1), 1); err == nil {
		t.Fatal("zero-unit dense compiled")
	}
	if err := NewSequential("x", NewDense(2)).Compile(3, nil, NewSGD(0.1), 1); err == nil {
		t.Fatal("nil loss compiled")
	}
	if err := NewSequential("x", NewActivation("bogus")).Compile(3, MeanSquaredError{}, NewSGD(0.1), 1); err == nil {
		t.Fatal("bogus activation compiled")
	}
	m := NewSequential("x", NewDense(2))
	if err := m.Compile(3, MeanSquaredError{}, NewSGD(0.1), 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Compile(3, MeanSquaredError{}, NewSGD(0.1), 1); err == nil {
		t.Fatal("double compile allowed")
	}
}

func TestConv1DBuildErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewConv1D(4, 3, 2).Build(rng, 9); err == nil {
		t.Fatal("indivisible channels accepted")
	}
	if _, err := NewConv1D(4, 30, 1).Build(rng, 9); err == nil {
		t.Fatal("kernel longer than signal accepted")
	}
	if _, err := NewMaxPooling1D(4, 1).Build(rng, 3); err == nil {
		t.Fatal("pool window larger than signal accepted")
	}
}

// numericalGrad estimates dLoss/dθ for every parameter element by
// central differences through the full model.
func numericalGrad(m *Sequential, loss Loss, x, y *tensor.Matrix) [][]float64 {
	const h = 1e-6
	var out [][]float64
	for _, p := range m.Params() {
		g := make([]float64, len(p.Value.Data))
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			lp, _ := loss.Compute(m.Forward(x, false), y)
			p.Value.Data[i] = orig - h
			lm, _ := loss.Compute(m.Forward(x, false), y)
			p.Value.Data[i] = orig
			g[i] = (lp - lm) / (2 * h)
		}
		out = append(out, g)
	}
	return out
}

// checkGradients compares analytic and numerical gradients.
func checkGradients(t *testing.T, m *Sequential, loss Loss, x, y *tensor.Matrix, tol float64) {
	t.Helper()
	m.ZeroGrads()
	pred := m.Forward(x, false)
	_, g := loss.Compute(pred, y)
	m.Backward(g)
	num := numericalGrad(m, loss, x, y)
	for pi, p := range m.Params() {
		for i := range p.Grad.Data {
			a, n := p.Grad.Data[i], num[pi][i]
			if math.Abs(a-n) > tol*(1+math.Abs(n)) {
				t.Fatalf("param %s[%d]: analytic %.8g vs numerical %.8g", p.Name, i, a, n)
			}
		}
	}
}

func TestGradCheckDenseMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := buildModel(t, 4, MeanSquaredError{}, NewSGD(0.1), NewDense(3), NewActivation("tanh"), NewDense(2))
	x := tensor.RandNormal(rng, 5, 4, 1)
	y := tensor.RandNormal(rng, 5, 2, 1)
	checkGradients(t, m, MeanSquaredError{}, x, y, 1e-5)
}

func TestGradCheckDenseSoftmaxCCE(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := buildModel(t, 6, CategoricalCrossEntropy{}, NewSGD(0.1),
		NewDense(5), NewReLU(), NewDense(3), NewSoftmax())
	x := tensor.RandNormal(rng, 4, 6, 1)
	y := tensor.New(4, 3)
	for i := 0; i < 4; i++ {
		y.Set(i, rng.Intn(3), 1)
	}
	checkGradients(t, m, CategoricalCrossEntropy{}, x, y, 1e-4)
}

func TestGradCheckConvPoolStack(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// 12-step 1-channel signal → conv(3 filters, k=3) → pool(2) →
	// dense(2) → softmax.
	m := buildModel(t, 12, CategoricalCrossEntropy{}, NewSGD(0.1),
		NewConv1D(3, 3, 1), NewReLU(), NewMaxPooling1D(2, 3),
		NewFlatten(), NewDense(2), NewSoftmax())
	x := tensor.RandNormal(rng, 3, 12, 1)
	y := tensor.New(3, 2)
	for i := 0; i < 3; i++ {
		y.Set(i, rng.Intn(2), 1)
	}
	checkGradients(t, m, CategoricalCrossEntropy{}, x, y, 1e-4)
}

// TestGradCheckConvMultiChannel checks both Conv1D paths with more
// than one input channel, NT3's second convolution among them: im2col
// windows, whose backward scatter sums overlapping windows, and a 1×1
// kernel, which reshapes instead of copying. Each conv's input
// gradient feeds the parameters of the one below it, so the check
// covers dx as well as the weights.
func TestGradCheckConvMultiChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := buildModel(t, 8*2, MeanSquaredError{}, NewSGD(0.1),
		NewConv1D(3, 3, 2), NewActivation("tanh"), NewConv1D(2, 1, 3), NewConv1D(2, 3, 2),
		NewFlatten(), NewDense(2))
	x := tensor.RandNormal(rng, 3, 8*2, 1)
	y := tensor.RandNormal(rng, 3, 2, 1)
	checkGradients(t, m, MeanSquaredError{}, x, y, 1e-4)
}

// TestGradCheckSigmoidMSE checks P1B3's head: a sigmoid output
// regressed onto growth values in [0, 1] under MSE.
func TestGradCheckSigmoidMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := buildModel(t, 3, MeanSquaredError{}, NewSGD(0.1), NewDense(4), NewSigmoid(), NewDense(1), NewSigmoid())
	x := tensor.RandNormal(rng, 6, 3, 1)
	y := tensor.New(6, 1)
	for i := 0; i < 6; i++ {
		y.Set(i, 0, rng.Float64())
	}
	checkGradients(t, m, MeanSquaredError{}, x, y, 1e-4)
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := NewSoftmax()
	if _, err := a.Build(rng, 7); err != nil {
		t.Fatal(err)
	}
	out := a.Forward(tensor.RandNormal(rng, 9, 7, 3), false)
	for i := 0; i < out.Rows; i++ {
		s := 0.0
		for _, v := range out.Row(i) {
			s += v
			if v < 0 {
				t.Fatal("negative softmax output")
			}
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxNumericallyStable(t *testing.T) {
	a := NewSoftmax()
	if _, err := a.Build(rand.New(rand.NewSource(1)), 2); err != nil {
		t.Fatal(err)
	}
	out := a.Forward(tensor.FromSlice(1, 2, []float64{1000, 999}), false)
	if math.IsNaN(out.Data[0]) || math.IsInf(out.Data[0], 0) {
		t.Fatalf("softmax overflow: %v", out.Data)
	}
}

func TestReLUForward(t *testing.T) {
	a := NewReLU()
	if _, err := a.Build(rand.New(rand.NewSource(1)), 4); err != nil {
		t.Fatal(err)
	}
	out := a.Forward(tensor.FromSlice(1, 4, []float64{-2, -0.5, 0, 3}), false)
	want := []float64{0, 0, 0, 3}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("relu = %v, want %v", out.Data, want)
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	d := NewDropout(0.5)
	if _, err := d.Build(rand.New(rand.NewSource(9)), 1000); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 1000)
	x.Fill(1)
	// Eval: identity.
	if !d.Forward(x, false).Equal(x) {
		t.Fatal("dropout not identity at eval")
	}
	// Train: roughly half zeroed, survivors scaled to 2.
	out := d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout value %v", v)
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropout zeroed %d of 1000 at rate 0.5", zeros)
	}
	if zeros+twos != 1000 {
		t.Fatal("dropout produced other values")
	}
	// Backward masks the same elements.
	g := tensor.New(1, 1000)
	g.Fill(1)
	back := d.Backward(g)
	for i, v := range out.Data {
		if (v == 0) != (back.Data[i] == 0) {
			t.Fatal("dropout backward mask differs from forward")
		}
	}
}

func TestDropoutRateValidation(t *testing.T) {
	if _, err := NewDropout(1.0).Build(rand.New(rand.NewSource(1)), 3); err == nil {
		t.Fatal("rate 1.0 accepted")
	}
	if _, err := NewDropout(-0.1).Build(rand.New(rand.NewSource(1)), 3); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestMaxPoolingForward(t *testing.T) {
	p := NewMaxPooling1D(2, 1)
	if _, err := p.Build(rand.New(rand.NewSource(1)), 6); err != nil {
		t.Fatal(err)
	}
	out := p.Forward(tensor.FromSlice(1, 6, []float64{1, 5, 2, 2, 9, 0}), false)
	want := []float64{5, 2, 9}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("maxpool = %v, want %v", out.Data, want)
		}
	}
}

func TestMaxPoolingMultiChannel(t *testing.T) {
	// 4 steps × 2 channels, pool 2 → 2 steps × 2 channels.
	p := NewMaxPooling1D(2, 2)
	if _, err := p.Build(rand.New(rand.NewSource(1)), 8); err != nil {
		t.Fatal(err)
	}
	// steps: (1,10) (3,2) (5,6) (0,8)
	out := p.Forward(tensor.FromSlice(1, 8, []float64{1, 10, 3, 2, 5, 6, 0, 8}), false)
	want := []float64{3, 10, 5, 8}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("maxpool mc = %v, want %v", out.Data, want)
		}
	}
}

func TestConv1DKnownValues(t *testing.T) {
	c := NewConv1D(1, 2, 1)
	if _, err := c.Build(rand.New(rand.NewSource(1)), 4); err != nil {
		t.Fatal(err)
	}
	// Set kernel to [1, -1], bias 0.5: out[t] = x[t] - x[t+1] + 0.5.
	c.w.Value.Data[0], c.w.Value.Data[1] = 1, -1
	c.b.Value.Data[0] = 0.5
	out := c.Forward(tensor.FromSlice(1, 4, []float64{3, 1, 4, 1}), false)
	want := []float64{2.5, -2.5, 3.5}
	for i, v := range want {
		if math.Abs(out.Data[i]-v) > 1e-12 {
			t.Fatalf("conv = %v, want %v", out.Data, want)
		}
	}
}

func TestLossesKnownValues(t *testing.T) {
	pred := tensor.FromSlice(1, 2, []float64{0.9, 0.1})
	target := tensor.FromSlice(1, 2, []float64{1, 0})
	l, _ := CategoricalCrossEntropy{}.Compute(pred, target)
	if math.Abs(l-(-math.Log(0.9))) > 1e-12 {
		t.Fatalf("cce = %v", l)
	}
	l2, _ := MeanSquaredError{}.Compute(pred, target)
	if math.Abs(l2-(0.01+0.01)/2) > 1e-12 {
		t.Fatalf("mse = %v", l2)
	}
}

func TestLossGradientSignsMSE(t *testing.T) {
	pred := tensor.FromSlice(1, 2, []float64{2, -1})
	target := tensor.FromSlice(1, 2, []float64{0, 0})
	_, g := MeanSquaredError{}.Compute(pred, target)
	if g.Data[0] <= 0 || g.Data[1] >= 0 {
		t.Fatalf("mse grad signs wrong: %v", g.Data)
	}
}

func TestAccuracyMetric(t *testing.T) {
	pred := tensor.FromSlice(3, 2, []float64{0.9, 0.1, 0.2, 0.8, 0.6, 0.4})
	tgt := tensor.FromSlice(3, 2, []float64{1, 0, 0, 1, 0, 1})
	if acc := Accuracy(pred, tgt); math.Abs(acc-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %v", acc)
	}
	// Binary single column.
	p1 := tensor.FromSlice(2, 1, []float64{0.7, 0.2})
	t1 := tensor.FromSlice(2, 1, []float64{1, 1})
	if acc := Accuracy(p1, t1); acc != 0.5 {
		t.Fatalf("binary accuracy = %v", acc)
	}
}

func TestOptimizersReduceLoss(t *testing.T) {
	mk := func(opt Optimizer) float64 {
		rng := rand.New(rand.NewSource(77))
		x := tensor.RandNormal(rng, 64, 8, 1)
		// Planted linear target.
		w := tensor.RandNormal(rng, 8, 1, 1)
		y := tensor.MatMul(x, w)
		m := NewSequential("opt-test", NewDense(1))
		if err := m.Compile(8, MeanSquaredError{}, opt, 5); err != nil {
			t.Fatal(err)
		}
		first := m.GradientsOnly(x, y)
		for i := 0; i < 200; i++ {
			m.TrainBatch(x, y)
		}
		last := m.GradientsOnly(x, y)
		if last >= first {
			t.Fatalf("%s did not reduce loss: %v -> %v", opt.Name(), first, last)
		}
		return last
	}
	mk(NewSGD(0.05))
	mk(NewAdam(0.05))
	mk(NewRMSprop(0.01))
}

func TestNewOptimizerByName(t *testing.T) {
	if NewOptimizer("adam", 0.1).Name() != "adam" {
		t.Fatal("adam lookup")
	}
	if NewOptimizer("rmsprop", 0.1).Name() != "rmsprop" {
		t.Fatal("rmsprop lookup")
	}
	if NewOptimizer("sgd", 0.1).Name() != "sgd" {
		t.Fatal("sgd lookup")
	}
	if NewOptimizer("unknown", 0.1).Name() != "sgd" {
		t.Fatal("unknown should fall back to sgd")
	}
}

func TestLearningRateScaling(t *testing.T) {
	opt := NewSGD(0.001)
	opt.SetLearningRate(opt.LearningRate() * 8) // linear LR scaling for 8 workers
	if opt.LearningRate() != 0.008 {
		t.Fatalf("lr = %v", opt.LearningRate())
	}
}

func TestFitLearnsSeparableClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	x := tensor.New(n, 2)
	y := tensor.New(n, 2)
	for i := 0; i < n; i++ {
		cls := i % 2
		cx := float64(cls*4 - 2) // centers at -2 and +2
		x.Set(i, 0, cx+rng.NormFloat64()*0.5)
		x.Set(i, 1, rng.NormFloat64()*0.5)
		y.Set(i, cls, 1)
	}
	m := buildModel(t, 2, CategoricalCrossEntropy{}, NewSGD(0.1),
		NewDense(8), NewReLU(), NewDense(2), NewSoftmax())
	hist, err := m.Fit(x, y, FitConfig{Epochs: 30, BatchSize: 20, Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := hist.Acc[len(hist.Acc)-1]; got < 0.97 {
		t.Fatalf("final accuracy %v < 0.97", got)
	}
	if hist.Loss[len(hist.Loss)-1] >= hist.Loss[0] {
		t.Fatalf("loss did not decrease: %v -> %v", hist.Loss[0], hist.Loss[len(hist.Loss)-1])
	}
	if hist.Batches != 10 {
		t.Fatalf("batches per epoch = %d, want 10", hist.Batches)
	}
}

func TestFitValidationTracked(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandNormal(rng, 40, 3, 1)
	y := tensor.New(40, 2)
	for i := 0; i < 40; i++ {
		y.Set(i, i%2, 1)
	}
	m := buildModel(t, 3, CategoricalCrossEntropy{}, NewSGD(0.05),
		NewDense(2), NewSoftmax())
	hist, err := m.Fit(x, y, FitConfig{Epochs: 3, BatchSize: 10, ValX: x, ValY: y})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.ValLoss) != 3 || len(hist.ValAcc) != 3 {
		t.Fatalf("validation history lengths: %d/%d", len(hist.ValLoss), len(hist.ValAcc))
	}
}

func TestFitRejectsBadConfig(t *testing.T) {
	m := buildModel(t, 2, MeanSquaredError{}, NewSGD(0.1), NewDense(1))
	x, y := tensor.New(4, 2), tensor.New(4, 1)
	if _, err := m.Fit(x, y, FitConfig{Epochs: 0, BatchSize: 2}); err == nil {
		t.Fatal("epochs=0 accepted")
	}
	if _, err := m.Fit(x, y, FitConfig{Epochs: 1, BatchSize: 0}); err == nil {
		t.Fatal("batch=0 accepted")
	}
	if _, err := m.Fit(x, tensor.New(5, 1), FitConfig{Epochs: 1, BatchSize: 2}); err == nil {
		t.Fatal("row mismatch accepted")
	}
}

type countingCallback struct {
	trainBegin, epochs int
}

func (c *countingCallback) OnTrainBegin(*Sequential)             { c.trainBegin++ }
func (c *countingCallback) OnEpochEnd(*Sequential, int, float64) { c.epochs++ }

func TestCallbacksInvoked(t *testing.T) {
	m := buildModel(t, 2, MeanSquaredError{}, NewSGD(0.01), NewDense(1))
	x := tensor.New(8, 2)
	y := tensor.New(8, 1)
	cb := &countingCallback{}
	if _, err := m.Fit(x, y, FitConfig{Epochs: 3, BatchSize: 4, Callbacks: []Callback{cb}}); err != nil {
		t.Fatal(err)
	}
	if cb.trainBegin != 1 || cb.epochs != 3 {
		t.Fatalf("callback counts: %+v", *cb)
	}
}

func TestWeightsVectorRoundTrip(t *testing.T) {
	m := buildModel(t, 3, MeanSquaredError{}, NewSGD(0.1), NewDense(4), NewDense(2))
	w := m.WeightsVector()
	if len(w) != m.ParamCount() {
		t.Fatalf("weights length %d != %d", len(w), m.ParamCount())
	}
	for i := range w {
		w[i] = float64(i)
	}
	if err := m.SetWeightsVector(w); err != nil {
		t.Fatal(err)
	}
	w2 := m.WeightsVector()
	for i := range w {
		if w2[i] != w[i] {
			t.Fatal("weights round-trip mismatch")
		}
	}
	if err := m.SetWeightsVector(w[:3]); err == nil {
		t.Fatal("short weights accepted")
	}
}

func TestDeterministicTrainingSameSeed(t *testing.T) {
	run := func() []float64 {
		rng := rand.New(rand.NewSource(21))
		x := tensor.RandNormal(rng, 30, 4, 1)
		y := tensor.New(30, 2)
		for i := 0; i < 30; i++ {
			y.Set(i, i%2, 1)
		}
		m := NewSequential("det", NewDense(6), NewReLU(), NewDense(2), NewSoftmax())
		if err := m.Compile(4, CategoricalCrossEntropy{}, NewSGD(0.05), 99); err != nil {
			t.Fatal(err)
		}
		hist, err := m.Fit(x, y, FitConfig{Epochs: 4, BatchSize: 10, Shuffle: true})
		if err != nil {
			t.Fatal(err)
		}
		return hist.Loss
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic training: %v vs %v", a, b)
		}
	}
}

// Property: GradientsOnly + ApplyStep is equivalent to TrainBatch.
func TestQuickSplitStepEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.RandNormal(rng, 6, 3, 1)
		y := tensor.RandNormal(rng, 6, 2, 1)
		mk := func() *Sequential {
			m := NewSequential("q", NewDense(4), NewActivation("tanh"), NewDense(2))
			if err := m.Compile(3, MeanSquaredError{}, NewSGD(0.05), seed); err != nil {
				t.Fatal(err)
			}
			return m
		}
		m1, m2 := mk(), mk()
		m1.TrainBatch(x, y)
		m2.GradientsOnly(x, y)
		m2.ApplyStep()
		w1, w2 := m1.WeightsVector(), m2.WeightsVector()
		for i := range w1 {
			if w1[i] != w2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: evaluation loss is invariant to batch slicing order of the
// forward pass (pure inference, dropout off).
func TestQuickPredictDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.RandNormal(rng, 5, 4, 1)
		m := NewSequential("q2", NewDense(3), NewSoftmax())
		if err := m.Compile(4, CategoricalCrossEntropy{}, NewSGD(0.01), seed); err != nil {
			t.Fatal(err)
		}
		a := m.Predict(x)
		b := m.Predict(x)
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
