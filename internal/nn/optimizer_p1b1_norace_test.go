//go:build !race

package nn_test

import (
	"math"
	"testing"

	"candle/internal/candle"
	"candle/internal/data"
	"candle/internal/nn"
	"candle/internal/tensor"
)

// TestAdamOnP1B1MatchesReference trains the benchmark's p1b1_f32 model
// (P1B1 at 1/16 samples, 1/60 features, f32, batch 32, nine epochs)
// once with Adam and once with the reference loop. Adam's folded bias
// correction moves weights by rounding only, so both loss curves agree
// to 1e-9 and the target (test loss at 0.925 of the first epoch's) is
// met at the same epoch: time-to-target changes by the step's cost and
// not by the number of steps.
//
// Excluded from -race builds: it is eighteen training epochs of
// arithmetic, 15x slower there, and the race build already runs the
// dispatched update in TestUpdatePartitionIndependent.
func TestAdamOnP1B1MatchesReference(t *testing.T) {
	b := candle.P1B1(16, 60)
	train, err := data.Generate(b.Spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	test, err := data.GenerateTest(b.Spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	fit := func(opt nn.Optimizer) *nn.History {
		m := b.Build(b.Spec)
		if err := m.SetDType(tensor.F32); err != nil {
			t.Fatal(err)
		}
		if err := m.Compile(b.Spec.Features, b.Loss, opt, 1); err != nil {
			t.Fatal(err)
		}
		h, err := m.Fit(train.X, train.Y, nn.FitConfig{Epochs: 9, BatchSize: 32, Shuffle: true, ValX: test.X, ValY: test.Y})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	targetEpoch := func(h *nn.History) int {
		for e, l := range h.ValLoss {
			if l <= 0.925*h.ValLoss[0] {
				return e
			}
		}
		return -1
	}
	got, want := fit(nn.NewAdam(0.001)), fit(nn.NewReferenceAdam(0.001))
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"training loss", got.Loss, want.Loss}, {"test loss", got.ValLoss, want.ValLoss}} {
		for e := range c.want {
			if math.Abs(c.got[e]-c.want[e]) > 1e-9*math.Abs(c.want[e]) {
				t.Errorf("%s at epoch %d: %v, reference %v", c.name, e, c.got[e], c.want[e])
			}
		}
	}
	if g, w := targetEpoch(got), targetEpoch(want); g != w || w < 0 {
		t.Errorf("target met at epoch %d, reference at %d (test loss by epoch %v)", g, w, want.ValLoss)
	}
}
