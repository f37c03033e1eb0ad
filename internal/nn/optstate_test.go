package nn

import (
	"testing"

	"candle/internal/tensor"
)

// The optimizer-state capture/restore contract behind checkpoint
// resume: after restoring captured state into a FRESH optimizer, the
// next Step must move the weights bit-identically to the original
// optimizer continuing in place. Anything less and a resumed run
// silently departs the uninterrupted trajectory (velocity reset to
// zero, Adam bias correction restarted at t=0, ...).

func optTestParams() []*Param {
	a := newParam("w0", tensor.New(2, 3))
	b := newParam("w1", tensor.New(1, 4))
	for _, p := range []*Param{a, b} {
		for i := range p.Value.Data {
			p.Value.Data[i] = 0.1 * float64(i+1)
		}
	}
	return []*Param{a, b}
}

func cloneParams(src []*Param) []*Param {
	out := make([]*Param, len(src))
	for i, p := range src {
		c := newParam(p.Name, tensor.New(p.Value.Rows, p.Value.Cols))
		copy(c.Value.Data, p.Value.Data)
		out[i] = c
	}
	return out
}

func setGrads(params []*Param, scale float64) {
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = scale * float64(i+1)
		}
	}
}

func stepN(opt Optimizer, params []*Param, n int, scale float64) {
	for k := 0; k < n; k++ {
		setGrads(params, scale+0.01*float64(k))
		opt.Step(params)
	}
}

func testStateRoundTrip(t *testing.T, fresh func() Optimizer) {
	t.Helper()
	orig := fresh()
	so, ok := orig.(StatefulOptimizer)
	if !ok {
		t.Fatalf("%s does not implement StatefulOptimizer", orig.Name())
	}
	params := optTestParams()
	stepN(orig, params, 3, 0.2) // accumulate real internal state
	state := so.CaptureState(params)
	if len(state) == 0 {
		t.Fatalf("%s captured no state after 3 steps", orig.Name())
	}

	resumedParams := cloneParams(params)
	resumed := fresh()
	if err := resumed.(StatefulOptimizer).RestoreState(resumedParams, state); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}

	// Both optimizers now take the same gradient step; the restored one
	// must land on the same bits.
	setGrads(params, 0.3)
	setGrads(resumedParams, 0.3)
	orig.Step(params)
	resumed.Step(resumedParams)
	for i := range params {
		for k, v := range params[i].Value.Data {
			if got := resumedParams[i].Value.Data[k]; got != v {
				t.Fatalf("%s: param %d elem %d: restored step gives %v, original gives %v",
					orig.Name(), i, k, got, v)
			}
		}
	}
}

func TestSGDMomentumStateRoundTrip(t *testing.T) {
	testStateRoundTrip(t, func() Optimizer { return NewSGDMomentum(0.05, 0.9) })
}

func TestAdamStateRoundTrip(t *testing.T) {
	testStateRoundTrip(t, func() Optimizer { return NewAdam(0.01) })
}

func TestRMSpropStateRoundTrip(t *testing.T) {
	testStateRoundTrip(t, func() Optimizer { return NewRMSprop(0.01) })
}

// TestClippedOptimizerStateRoundTrip: the clipping wrapper must carry
// its base's state through a checkpoint; before it implemented
// StatefulOptimizer a clipped Adam or RMSprop resumed with its moments
// dropped.
func TestClippedOptimizerStateRoundTrip(t *testing.T) {
	testStateRoundTrip(t, func() Optimizer { return NewClippedOptimizer(NewAdam(0.01), 1) })
	testStateRoundTrip(t, func() Optimizer { return NewClippedOptimizer(NewRMSprop(0.01), 1) })
}

// TestRestoreStateRejectsShapeMismatch: a snapshot whose state vectors
// disagree with the live model's parameters must be refused with an
// error, never silently truncated into corrupt optimizer state.
func TestRestoreStateRejectsShapeMismatch(t *testing.T) {
	for _, fresh := range []func() Optimizer{
		func() Optimizer { return NewSGDMomentum(0.05, 0.9) },
		func() Optimizer { return NewAdam(0.01) },
		func() Optimizer { return NewRMSprop(0.01) },
	} {
		opt := fresh()
		so := opt.(StatefulOptimizer)
		params := optTestParams()
		stepN(opt, params, 1, 0.2)
		state := so.CaptureState(params)

		if err := fresh().(StatefulOptimizer).RestoreState(params[:1], state); err == nil {
			t.Errorf("%s: wrong vector count accepted", opt.Name())
		}
		short := make([][]float64, len(state))
		for i, v := range state {
			short[i] = v[:1]
		}
		if err := fresh().(StatefulOptimizer).RestoreState(params, short); err == nil {
			t.Errorf("%s: wrong element count accepted", opt.Name())
		}
	}
}

// TestSGDWithoutMomentumHasNoState: plain SGD is stateless — capture
// returns nil and restoring an empty state is a no-op, the path a
// legacy pre-OptState snapshot takes.
func TestSGDWithoutMomentumHasNoState(t *testing.T) {
	opt := NewSGD(0.05)
	params := optTestParams()
	stepN(opt, params, 2, 0.2)
	if st := opt.CaptureState(params); st != nil {
		t.Fatalf("stateless SGD captured %v", st)
	}
	if err := opt.RestoreState(params, nil); err != nil {
		t.Fatalf("restoring empty state: %v", err)
	}
}
