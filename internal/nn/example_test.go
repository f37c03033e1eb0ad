package nn_test

import (
	"fmt"
	"math/rand"

	"candle/internal/nn"
	"candle/internal/tensor"
)

// ExampleSequential shows the Keras-like training loop: build, compile,
// fit, evaluate.
func ExampleSequential() {
	// Two separable blobs.
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(80, 2)
	y := tensor.New(80, 2)
	for i := 0; i < 80; i++ {
		cls := i % 2
		x.Set(i, 0, float64(cls*4-2)+rng.NormFloat64()*0.3)
		x.Set(i, 1, rng.NormFloat64()*0.3)
		y.Set(i, cls, 1)
	}
	m := nn.NewSequential("demo",
		nn.NewDense(8), nn.NewReLU(),
		nn.NewDense(2), nn.NewSoftmax(),
	)
	if err := m.Compile(2, nn.CategoricalCrossEntropy{}, nn.NewSGD(0.1), 42); err != nil {
		panic(err)
	}
	hist, err := m.Fit(x, y, nn.FitConfig{Epochs: 20, BatchSize: 16, Shuffle: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("accuracy after %d epochs: %.2f\n", len(hist.Loss), hist.Acc[len(hist.Acc)-1])
	// Output:
	// accuracy after 20 epochs: 1.00
}
