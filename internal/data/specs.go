package data

// Full-scale dataset specs matching Table 1 of the paper: the
// train/test sample counts, elements per sample and training cards are
// the paper's; test-set sizes are derived from the reported file-size
// ratios where the paper does not state them directly.

// NT3 returns the NT3 spec: RNA-seq profiles classified normal vs
// tumor.
func NT3() Spec {
	return Spec{
		Name: "NT3", Kind: Classification,
		TrainSamples: 1120, TestSamples: 280,
		Features: 60483, Classes: 2,
		Latent: 600, NoiseStd: 1.0, SignalStrength: 2.0,
		Card: Card{DefaultBatch: 20, DefaultEpochs: 384, LearningRate: 0.001, Optimizer: "sgd"},
	}
}

// P1B1 returns the P1B1 spec: RNA-seq autoencoder. Table 1 gives no
// learning rate (adam's default).
func P1B1() Spec {
	return Spec{
		Name: "P1B1", Kind: Autoencoder,
		TrainSamples: 2700, TestSamples: 900,
		Features: 60484,
		Latent:   100, NoiseStd: 0.1,
		Card: Card{DefaultBatch: 100, DefaultEpochs: 384, LearningRate: 0.001, Optimizer: "adam"},
	}
}

// P1B2 returns the P1B2 spec: SNP-based cancer-type classification.
func P1B2() Spec {
	return Spec{
		Name: "P1B2", Kind: Classification,
		TrainSamples: 2700, TestSamples: 900,
		Features: 28204, Classes: 10,
		Latent: 300, NoiseStd: 1.0, SignalStrength: 1.5,
		Card: Card{DefaultBatch: 60, DefaultEpochs: 768, LearningRate: 0.001, Optimizer: "rmsprop"},
	}
}

// P1B3 returns the P1B3 spec: drug-response growth regression.
func P1B3() Spec {
	return Spec{
		Name: "P1B3", Kind: Regression,
		TrainSamples: 900100, TestSamples: 291500,
		Features: 1000,
		Latent:   50, NoiseStd: 0.05,
		Card: Card{DefaultBatch: 100, DefaultEpochs: 1, LearningRate: 0.001, Optimizer: "sgd"},
	}
}

// P2B1 returns a Pilot2-style spec: molecular-dynamics frame
// autoencoding (protein bead coordinates near a low-dimensional
// conformational manifold). The paper treats P2 benchmarks as
// parallelizable "in a similar way" to P1; shapes here follow the
// public P2B1 problem size.
func P2B1() Spec {
	return Spec{
		Name: "P2B1", Kind: Autoencoder,
		TrainSamples: 3840, TestSamples: 960,
		Features: 11340,
		Latent:   80, NoiseStd: 0.08,
		Card: Card{DefaultBatch: 32, DefaultEpochs: 100, LearningRate: 0.001, Optimizer: "adam"},
	}
}

// P3B1 returns a Pilot3-style spec: clinical-report token sequences
// classified by primary site (text classification over a fixed
// vocabulary).
func P3B1() Spec {
	return Spec{
		Name: "P3B1", Kind: TextClassification,
		TrainSamples: 4800, TestSamples: 1200,
		Features: 250, // sequence length
		Classes:  4,
		Vocab:    1000,
		Card:     Card{DefaultBatch: 16, DefaultEpochs: 50, LearningRate: 0.01, Optimizer: "adam"},
	}
}
