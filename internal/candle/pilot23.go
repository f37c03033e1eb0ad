package candle

import (
	"candle/internal/data"
	"candle/internal/nn"
)

// The paper's parallel methodology "can be applied to other CANDLE
// benchmarks such as the P2 and P3 benchmarks in a similar way" (§1).
// These two benchmarks demonstrate that claim: the same three-phase
// pipeline, Horovod wrapping, and scaling strategies run unchanged
// over a Pilot2-style molecular-dynamics autoencoder and a
// Pilot3-style clinical-text classifier.

// P2B1 returns the Pilot2-style benchmark: an autoencoder with batch
// normalization over molecular-dynamics frames.
func P2B1(sampleDiv, featureDiv int) *Benchmark {
	spec := data.P2B1().Scaled(sampleDiv, featureDiv)
	return &Benchmark{
		Spec: spec,
		Cal:  spec.Card,
		Loss: nn.MeanSquaredError{},
		Build: func(spec data.Spec) *nn.Sequential {
			latent := spec.Latent
			if latent < 2 {
				latent = 2
			}
			hidden := spec.Features / 3
			if hidden < latent {
				hidden = latent
			}
			return nn.NewSequential("p2b1",
				nn.NewDense(hidden), nn.NewBatchNorm(), nn.NewReLU(),
				nn.NewDense(latent), nn.NewReLU(),
				nn.NewDense(hidden), nn.NewReLU(),
				nn.NewDense(spec.Features),
			)
		},
	}
}

// P3B1 returns the Pilot3-style benchmark: token embedding + LSTM
// classifier over clinical-report sequences.
func P3B1(sampleDiv, featureDiv int) *Benchmark {
	spec := data.P3B1().Scaled(sampleDiv, featureDiv)
	// Shrink the vocabulary with the sample count so scaled variants
	// still generalize (a 1,000-token vocab needs far more than a few
	// hundred sequences).
	if sampleDiv > 1 {
		spec.Vocab = spec.Vocab / sampleDiv
		if spec.Vocab < spec.Classes+2 {
			spec.Vocab = spec.Classes + 2
		}
	}
	return &Benchmark{
		Spec: spec,
		Cal:  spec.Card,
		Loss: nn.CategoricalCrossEntropy{},
		Build: func(spec data.Spec) *nn.Sequential {
			const dim = 8
			return nn.NewSequential("p3b1",
				nn.NewEmbedding(spec.Vocab, dim),
				nn.NewLSTM(16, dim),
				nn.NewDense(spec.Classes), nn.NewSoftmax(),
			)
		},
	}
}
