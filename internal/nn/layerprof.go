package nn

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"candle/internal/tensor"
)

// LayerTiming is one layer's measured forward/backward cost, the
// per-op breakdown an NVProf-style profile of the TensorFlow run would
// give (the paper's stated next step for finding further bottlenecks).
type LayerTiming struct {
	Index    int
	Name     string
	Params   int
	Forward  time.Duration
	Backward time.Duration
}

// Total returns forward+backward time.
func (t LayerTiming) Total() time.Duration { return t.Forward + t.Backward }

// ProfileLayers runs reps forward+backward passes of a compiled model
// on batch x/y and returns per-layer timings (summed over reps).
func ProfileLayers(m *Sequential, loss Loss, x, y *tensor.Matrix, reps int) ([]LayerTiming, error) {
	if !m.Built() {
		return nil, fmt.Errorf("nn: profile of uncompiled model")
	}
	if reps < 1 {
		reps = 1
	}
	timings := make([]LayerTiming, len(m.Layers))
	for i, l := range m.Layers {
		timings[i].Index = i
		timings[i].Name = l.Name()
		for _, p := range l.Params() {
			timings[i].Params += len(p.Value.Data)
		}
	}
	for r := 0; r < reps; r++ {
		m.ZeroGrads()
		// Forward, timing each layer.
		act := x
		for i, l := range m.Layers {
			start := time.Now()
			act = l.Forward(act, true)
			timings[i].Forward += time.Since(start)
		}
		lossVal, grad := loss.Compute(act, y)
		_ = lossVal
		// Backward, timing each layer.
		for i := len(m.Layers) - 1; i >= 0; i-- {
			start := time.Now()
			grad = m.Layers[i].Backward(grad)
			timings[i].Backward += time.Since(start)
		}
	}
	return timings, nil
}

// FormatLayerProfile renders timings as an aligned table sorted by
// total time descending.
func FormatLayerProfile(timings []LayerTiming) string {
	sorted := make([]LayerTiming, len(timings))
	copy(sorted, timings)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Total() > sorted[j].Total() })
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %12s %12s %12s\n", "layer", "params", "forward", "backward", "total")
	for _, t := range sorted {
		fmt.Fprintf(&b, "%-24s %10d %12s %12s %12s\n",
			t.Name, t.Params, t.Forward.Round(time.Microsecond),
			t.Backward.Round(time.Microsecond), t.Total().Round(time.Microsecond))
	}
	return b.String()
}

// StepTiming is where reps whole training steps went outside the
// layers: clearing the gradients before the pass and the optimizer's
// update after it. What is left of Step is the layers and the loss,
// which ProfileLayers splits.
type StepTiming struct {
	Step      time.Duration
	ZeroGrads time.Duration
	Optimizer time.Duration
}

// ProfileStep trains a compiled model for reps steps on batch x/y (after
// one untimed step that creates the optimizer's state) and returns the
// summed timings. It moves the weights; profile a model you can discard.
func ProfileStep(m *Sequential, x, y *tensor.Matrix, reps int) (StepTiming, error) {
	if !m.Built() {
		return StepTiming{}, fmt.Errorf("nn: profile of uncompiled model")
	}
	if reps < 1 {
		reps = 1
	}
	m.TrainBatch(x, y)
	var t StepTiming
	for r := 0; r < reps; r++ {
		start := time.Now()
		m.ZeroGrads()
		zeroed := time.Now()
		_, grad := m.loss.Compute(m.Forward(x, true), y)
		m.Backward(grad)
		backDone := time.Now()
		m.ApplyStep()
		end := time.Now()
		t.Step += end.Sub(start)
		t.ZeroGrads += zeroed.Sub(start)
		t.Optimizer += end.Sub(backDone)
	}
	return t, nil
}

// FormatStepProfile renders t as the rows that go under the per-layer
// table: each part's time and its share of the step.
func FormatStepProfile(t StepTiming) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %8s\n", "step part", "time", "share")
	for _, row := range []struct {
		name string
		d    time.Duration
	}{{"zero_grads", t.ZeroGrads}, {"optimizer", t.Optimizer}, {"step", t.Step}} {
		fmt.Fprintf(&b, "%-24s %12s %7.1f%%\n", row.name, row.d.Round(time.Microsecond), 100*row.d.Seconds()/t.Step.Seconds())
	}
	return b.String()
}
