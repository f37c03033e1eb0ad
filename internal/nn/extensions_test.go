package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"candle/internal/tensor"
)

func TestDenseL2RegLossAndGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	m := buildModel(t, 3, MeanSquaredError{}, NewSGD(0.01), NewDenseL2(2, 0.1))
	x := tensor.RandNormal(rng, 4, 3, 1)
	y := tensor.RandNormal(rng, 4, 2, 1)

	// RegLoss = 0.1·Σw².
	var sum float64
	for _, p := range m.Params() {
		if strings.HasSuffix(p.Name, ".w") {
			for _, v := range p.Value.Data {
				sum += v * v
			}
		}
	}
	if got := m.RegLoss(); math.Abs(got-0.1*sum) > 1e-12 {
		t.Fatalf("RegLoss = %v, want %v", got, 0.1*sum)
	}

	// Full-loss gradient check: numerical d(data+reg)/dθ vs analytic.
	m.ZeroGrads()
	loss := m.GradientsOnly(x, y)
	if loss <= 0 {
		t.Fatal("no loss")
	}
	analytic := make([][]float64, 0, len(m.Params()))
	for _, p := range m.Params() {
		g := make([]float64, len(p.Grad.Data))
		copy(g, p.Grad.Data)
		analytic = append(analytic, g)
	}
	const h = 1e-6
	for pi, p := range m.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			lp, _ := MeanSquaredError{}.Compute(m.Forward(x, false), y)
			lp += m.RegLoss()
			p.Value.Data[i] = orig - h
			lm, _ := MeanSquaredError{}.Compute(m.Forward(x, false), y)
			lm += m.RegLoss()
			p.Value.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-analytic[pi][i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("param %d[%d]: analytic %v vs numerical %v", pi, i, analytic[pi][i], num)
			}
		}
	}
}

func TestDenseL2RejectsNegativeLambda(t *testing.T) {
	if _, err := NewDenseL2(2, -0.5).Build(rand.New(rand.NewSource(1)), 3); err == nil {
		t.Fatal("negative lambda accepted")
	}
}

func TestL2ShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := tensor.RandNormal(rng, 32, 4, 1)
	y := tensor.RandNormal(rng, 32, 2, 0.1)
	norm := func(lambda float64) float64 {
		var layer Layer
		if lambda > 0 {
			layer = NewDenseL2(2, lambda)
		} else {
			layer = NewDense(2)
		}
		m := NewSequential("l2", layer)
		if err := m.Compile(4, MeanSquaredError{}, NewSGD(0.05), 9); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			m.TrainBatch(x, y)
		}
		w := m.WeightsVector()
		s := 0.0
		for _, v := range w {
			s += v * v
		}
		return s
	}
	if norm(0.05) >= norm(0) {
		t.Fatal("L2 regularization did not shrink weights")
	}
}

func TestLocallyConnectedShapesAndGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m := buildModel(t, 8, MeanSquaredError{}, NewSGD(0.01),
		NewLocallyConnected1D(2, 3, 1), NewActivation("tanh"), NewDense(2))
	x := tensor.RandNormal(rng, 3, 8, 1)
	y := tensor.RandNormal(rng, 3, 2, 1)
	checkGradients(t, m, MeanSquaredError{}, x, y, 1e-4)
}

func TestLocallyConnectedUntiedWeights(t *testing.T) {
	// Unlike Conv1D, shifting the input pattern changes the output
	// because weights are position-specific.
	rng := rand.New(rand.NewSource(33))
	l := NewLocallyConnected1D(1, 2, 1)
	if _, err := l.Build(rng, 6); err != nil {
		t.Fatal(err)
	}
	a := tensor.FromSlice(1, 6, []float64{1, 2, 0, 0, 0, 0})
	b := tensor.FromSlice(1, 6, []float64{0, 0, 1, 2, 0, 0})
	oa := l.Forward(a, false)
	ob := l.Forward(b, false)
	// Output at position 0 for a vs position 2 for b would be equal if
	// weights were shared; untied weights almost surely differ.
	if math.Abs(oa.Data[0]-ob.Data[2]) < 1e-9 {
		t.Fatal("locally connected layer behaved like a shared-weight conv")
	}
	if l.Params()[0].Value.Rows != 5*2 { // outSteps(5) × kernel·inCh(2)
		t.Fatalf("weight rows = %d", l.Params()[0].Value.Rows)
	}
}

func TestLocallyConnectedBuildErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewLocallyConnected1D(1, 9, 1).Build(rng, 4); err == nil {
		t.Fatal("kernel longer than signal accepted")
	}
	if _, err := NewLocallyConnected1D(1, 2, 3).Build(rng, 7); err == nil {
		t.Fatal("indivisible channels accepted")
	}
}

func TestLRSchedulerAppliesSchedule(t *testing.T) {
	m := buildModel(t, 2, MeanSquaredError{}, NewSGD(0.1), NewDense(1))
	x, y := tensor.New(4, 2), tensor.New(4, 1)
	var lrs []float64
	rec := &recordLR{lrs: &lrs}
	sched := NewLRScheduler(StepDecaySchedule(2, 0.5))
	if _, err := m.Fit(x, y, FitConfig{Epochs: 6, BatchSize: 2,
		Callbacks: []Callback{sched, rec}}); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.1, 0.1, 0.05, 0.05, 0.025, 0.025}
	for i, w := range want {
		if math.Abs(lrs[i]-w) > 1e-12 {
			t.Fatalf("epoch %d lr = %v, want %v (all: %v)", i, lrs[i], w, lrs)
		}
	}
}

type recordLR struct {
	BaseCallback
	lrs *[]float64
}

func (r *recordLR) OnEpochBegin(m *Sequential, _ int) {
	*r.lrs = append(*r.lrs, m.Optimizer().LearningRate())
}

func TestWarmupSchedule(t *testing.T) {
	s := WarmupSchedule(4, 8) // ramp to 8× base over 4 epochs
	base := 0.001
	prev := 0.0
	for e := 0; e < 4; e++ {
		lr := s(e, base)
		if lr <= prev {
			t.Fatalf("warmup not increasing at epoch %d", e)
		}
		prev = lr
	}
	if got := s(4, base); math.Abs(got-0.008) > 1e-12 {
		t.Fatalf("post-warmup lr = %v", got)
	}
	if got := s(100, base); math.Abs(got-0.008) > 1e-12 {
		t.Fatalf("held lr = %v", got)
	}
}

func TestEarlyStoppingStopsFit(t *testing.T) {
	// A model with lr=0 never improves, so early stopping must
	// trigger after patience epochs.
	m := buildModel(t, 2, MeanSquaredError{}, NewSGD(0), NewDense(1))
	rng := rand.New(rand.NewSource(40))
	x := tensor.RandNormal(rng, 8, 2, 1)
	y := tensor.RandNormal(rng, 8, 1, 1)
	es := NewEarlyStopping(3, 1e-12)
	hist, err := m.Fit(x, y, FitConfig{Epochs: 50, BatchSize: 4, Callbacks: []Callback{es}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Loss) >= 50 {
		t.Fatalf("early stopping did not stop: ran %d epochs", len(hist.Loss))
	}
	if !es.WantsStop() || es.StoppedAt < 0 {
		t.Fatal("stopper state wrong")
	}
}

func TestEarlyStoppingDoesNotStopImprovingRun(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := tensor.RandNormal(rng, 32, 3, 1)
	w := tensor.RandNormal(rng, 3, 1, 1)
	y := tensor.MatMul(x, w)
	m := buildModel(t, 3, MeanSquaredError{}, NewSGD(0.05), NewDense(1))
	es := NewEarlyStopping(2, 1e-9)
	hist, err := m.Fit(x, y, FitConfig{Epochs: 12, BatchSize: 8, Callbacks: []Callback{es}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Loss) != 12 {
		t.Fatalf("stopped an improving run at epoch %d", len(hist.Loss))
	}
}

func TestProfileLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := buildModel(t, 16, CategoricalCrossEntropy{}, NewSGD(0.01),
		NewConv1D(4, 3, 1), NewReLU(), NewFlatten(), NewDense(2), NewSoftmax())
	x := tensor.RandNormal(rng, 8, 16, 1)
	y := tensor.New(8, 2)
	for i := 0; i < 8; i++ {
		y.Set(i, i%2, 1)
	}
	timings, err := ProfileLayers(m, CategoricalCrossEntropy{}, x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != 5 {
		t.Fatalf("timings for %d layers", len(timings))
	}
	totalParams := 0
	for _, tm := range timings {
		if tm.Forward < 0 || tm.Backward < 0 {
			t.Fatal("negative timing")
		}
		totalParams += tm.Params
	}
	if totalParams != m.ParamCount() {
		t.Fatalf("profile params %d != model %d", totalParams, m.ParamCount())
	}
	out := FormatLayerProfile(timings)
	if !strings.Contains(out, "conv1d") || !strings.Contains(out, "dense_2") {
		t.Fatalf("profile output missing layers:\n%s", out)
	}
	// Uncompiled model rejected.
	if _, err := ProfileLayers(NewSequential("x", NewDense(2)), MeanSquaredError{}, x, y, 1); err == nil {
		t.Fatal("uncompiled model accepted")
	}

	// The step profile: 3 timed steps after the untimed one, the two
	// parts inside the whole, and a row for each.
	st, err := ProfileStep(m, x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Steps() != 4 {
		t.Fatalf("profile ran %d steps, want 4", m.Steps())
	}
	if st.ZeroGrads < 0 || st.Optimizer <= 0 || st.ZeroGrads+st.Optimizer >= st.Step {
		t.Fatalf("step timing parts do not fit inside the step: %+v", st)
	}
	if out := FormatStepProfile(st); !strings.Contains(out, "optimizer") || !strings.Contains(out, "zero_grads") {
		t.Fatalf("step profile output missing rows:\n%s", out)
	}
	if _, err := ProfileStep(NewSequential("x", NewDense(2)), x, y, 1); err == nil {
		t.Fatal("uncompiled model accepted")
	}
}
