package nn

import (
	"fmt"
	"math"

	"candle/internal/tensor"
)

// Loss scores a batch of predictions against targets and produces the
// gradient of the batch-mean loss with respect to the predictions.
type Loss interface {
	Name() string
	Compute(pred, target *tensor.Matrix) (loss float64, grad *tensor.Matrix)
}

const epsClip = 1e-12

func lossShapeCheck(name string, pred, target *tensor.Matrix) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("nn: %s shape mismatch pred %dx%d vs target %dx%d",
			name, pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
	if pred.Rows == 0 {
		panic("nn: " + name + " on empty batch")
	}
}

// CategoricalCrossEntropy is the multiclass log loss over probability
// predictions (e.g. the output of a softmax layer) against one-hot
// targets, matching Keras' categorical_crossentropy.
type CategoricalCrossEntropy struct{}

func (CategoricalCrossEntropy) Name() string { return "categorical_crossentropy" }

func (CategoricalCrossEntropy) Compute(pred, target *tensor.Matrix) (float64, *tensor.Matrix) {
	lossShapeCheck("categorical_crossentropy", pred, target)
	n := float64(pred.Rows)
	loss := 0.0
	grad := tensor.New(pred.Rows, pred.Cols)
	for i, p := range pred.Data {
		t := target.Data[i]
		if t == 0 {
			continue
		}
		pc := math.Max(p, epsClip)
		loss -= t * math.Log(pc)
		grad.Data[i] = -t / pc / n
	}
	return loss / n, grad
}

// MeanSquaredError is the regression loss used by the P1B1 autoencoder
// and the P1B3 growth-prediction benchmark.
type MeanSquaredError struct{}

func (MeanSquaredError) Name() string { return "mse" }

func (MeanSquaredError) Compute(pred, target *tensor.Matrix) (float64, *tensor.Matrix) {
	lossShapeCheck("mse", pred, target)
	n := float64(pred.Rows * pred.Cols)
	loss := 0.0
	grad := tensor.New(pred.Rows, pred.Cols)
	for i, p := range pred.Data {
		d := p - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}
