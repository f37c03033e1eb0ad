// Package candle defines the four CANDLE Pilot1 benchmarks — NT3,
// P1B1, P1B2, P1B3 — as runnable Go programs: a dataset spec, the
// Table 1 hyperparameters, a Keras-style model builder, and the
// three-phase pipeline of Figure 2 (data loading and preprocessing;
// training and cross-validation; prediction and evaluation on test
// data), parallelized with the Horovod layer exactly as §2.3 of the
// paper describes.
//
// Real-mode runs train actual models on scaled-down synthetic datasets
// with ranks as goroutines; the full-scale shapes are the province of
// internal/sim. The two share the same Table 1 training cards via
// data.Spec.
package candle

import (
	"fmt"
	"path/filepath"

	"candle/internal/data"
	"candle/internal/nn"
)

// Benchmark couples a dataset spec with hyperparameters and a model
// builder.
type Benchmark struct {
	// Spec is the dataset shape to generate/load (often a scaled-down
	// variant of the paper's shape for real training).
	Spec data.Spec
	// Cal carries the Table 1 hyperparameters (epochs, batch,
	// learning rate, optimizer).
	Cal data.Card
	// Build constructs the (uncompiled) model for the given feature
	// width.
	Build func(spec data.Spec) *nn.Sequential
	// Loss is the training objective.
	Loss nn.Loss
}

// DefaultSampleDiv and DefaultFeatureDiv give real-mode datasets that
// train in milliseconds per epoch while keeping every structural
// property (wide rows for NT3/P1B1/P1B2, many narrow rows for P1B3).
// Default uses them; CLIs that expose scale flags should default to
// them too — a divisor of 1 is the paper's full shape.
const (
	DefaultSampleDiv  = 8
	DefaultFeatureDiv = 150
)

// NT3 returns the NT3 benchmark (1-D convolutional classifier of
// RNA-seq profiles into normal/tumor) at the given scale divisors;
// pass 1, 1 for the paper's full shape.
func NT3(sampleDiv, featureDiv int) *Benchmark {
	spec := data.NT3().Scaled(sampleDiv, featureDiv)
	return &Benchmark{
		Spec: spec,
		Cal:  spec.Card,
		Loss: nn.CategoricalCrossEntropy{},
		Build: func(spec data.Spec) *nn.Sequential {
			// The CANDLE NT3 architecture (conv-pool ×2, dense 200/20,
			// dropout 0.1, softmax) with kernel/pool sizes adapted to
			// the signal length so scaled variants stay valid.
			steps := spec.Features
			k1 := clampKernel(20, steps)
			pool1 := 1
			k2 := clampKernel(10, steps-k1+1)
			rest := (steps - k1 + 1) - k2 + 1
			pool2 := clampPool(10, rest)
			return nn.NewSequential("nt3",
				nn.NewConv1D(16, k1, 1), nn.NewReLU(), nn.NewMaxPooling1D(pool1, 16),
				nn.NewConv1D(16, k2, 16), nn.NewReLU(), nn.NewMaxPooling1D(pool2, 16),
				nn.NewFlatten(),
				nn.NewDense(32), nn.NewReLU(), nn.NewDropout(0.1),
				nn.NewDense(16), nn.NewReLU(), nn.NewDropout(0.1),
				nn.NewDense(spec.Classes), nn.NewSoftmax(),
			)
		},
	}
}

// P1B1 returns the P1B1 benchmark (RNA-seq sparse autoencoder with
// encoding, bottleneck, and decoding layers).
func P1B1(sampleDiv, featureDiv int) *Benchmark {
	spec := data.P1B1().Scaled(sampleDiv, featureDiv)
	return &Benchmark{
		Spec: spec,
		Cal:  spec.Card,
		Loss: nn.MeanSquaredError{},
		Build: func(spec data.Spec) *nn.Sequential {
			latent := spec.Latent
			if latent < 2 {
				latent = 2
			}
			hidden := spec.Features / 4
			if hidden < latent {
				hidden = latent
			}
			return nn.NewSequential("p1b1",
				nn.NewDense(hidden), nn.NewReLU(), // encoding layer
				nn.NewDense(latent), nn.NewReLU(), // bottleneck
				nn.NewDense(hidden), nn.NewReLU(), // decoding layer
				nn.NewDense(spec.Features), // linear reconstruction
			)
		},
	}
}

// P1B2 returns the P1B2 benchmark (SNP-based cancer-type classifier,
// a 5-layer MLP with dropout regularization).
func P1B2(sampleDiv, featureDiv int) *Benchmark {
	spec := data.P1B2().Scaled(sampleDiv, featureDiv)
	return &Benchmark{
		Spec: spec,
		Cal:  spec.Card,
		Loss: nn.CategoricalCrossEntropy{},
		Build: func(spec data.Spec) *nn.Sequential {
			// "MLP with regularization" (§2.1.3): L2 kernel penalties
			// plus dropout, five layers.
			const l2 = 1e-4
			return nn.NewSequential("p1b2",
				nn.NewDenseL2(64, l2), nn.NewReLU(), nn.NewDropout(0.1),
				nn.NewDenseL2(32, l2), nn.NewReLU(), nn.NewDropout(0.1),
				nn.NewDenseL2(16, l2), nn.NewReLU(),
				nn.NewDense(spec.Classes), nn.NewSoftmax(),
			)
		},
	}
}

// P1B3 returns the P1B3 benchmark (drug-response growth regression
// MLP with convolution-like layers).
func P1B3(sampleDiv, featureDiv int) *Benchmark {
	spec := data.P1B3().Scaled(sampleDiv, featureDiv)
	return &Benchmark{
		Spec: spec,
		Cal:  spec.Card,
		Loss: nn.MeanSquaredError{},
		Build: func(spec data.Spec) *nn.Sequential {
			return nn.NewSequential("p1b3",
				nn.NewDense(64), nn.NewReLU(), nn.NewDropout(0.1),
				nn.NewDense(32), nn.NewReLU(),
				nn.NewDense(1), nn.NewSigmoid(),
			)
		},
	}
}

// Default returns the named benchmark at the default real-mode scale.
func Default(name string) (*Benchmark, error) {
	return Scaled(name, DefaultSampleDiv, DefaultFeatureDiv)
}

// Scaled returns the named benchmark at the given scale divisors.
func Scaled(name string, sampleDiv, featureDiv int) (*Benchmark, error) {
	switch name {
	case "NT3":
		return NT3(sampleDiv, featureDiv), nil
	case "P1B1":
		return P1B1(sampleDiv, featureDiv), nil
	case "P1B2":
		return P1B2(sampleDiv, featureDiv), nil
	case "P1B3":
		// P1B3 has 900k samples; scale rows much harder by default.
		return P1B3(sampleDiv*250, max(1, featureDiv/15)), nil
	case "P2B1":
		return P2B1(sampleDiv, featureDiv), nil
	case "P3B1":
		// Text sequences are already short; scale length gently.
		return P3B1(sampleDiv, max(1, featureDiv/30)), nil
	default:
		return nil, fmt.Errorf("candle: unknown benchmark %q", name)
	}
}

func clampKernel(want, steps int) int {
	if want > steps {
		if steps < 1 {
			return 1
		}
		return steps
	}
	return want
}

func clampPool(want, steps int) int {
	if steps <= 1 {
		return 1
	}
	if want > steps {
		return steps
	}
	return want
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Files names the on-disk CSV pair for a benchmark in dir.
func (b *Benchmark) Files(dir string) (train, test string) {
	return filepath.Join(dir, b.Spec.Name+"_train.csv"),
		filepath.Join(dir, b.Spec.Name+"_test.csv")
}

// PrepareData generates the benchmark's train/test splits and writes
// them as CSV into dir, returning the paths. Deterministic per seed.
func (b *Benchmark) PrepareData(dir string, seed int64) (train, test string, err error) {
	tr, err := data.Generate(b.Spec, seed)
	if err != nil {
		return "", "", err
	}
	te, err := data.GenerateTest(b.Spec, seed)
	if err != nil {
		return "", "", err
	}
	train, test = b.Files(dir)
	if err := tr.WriteCSV(train); err != nil {
		return "", "", err
	}
	if err := te.WriteCSV(test); err != nil {
		return "", "", err
	}
	return train, test, nil
}
