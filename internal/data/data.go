// Package data generates deterministic synthetic datasets with the
// shapes of the four CANDLE Pilot1 benchmarks (Table 1 of the paper).
// The real datasets (NCI Genomic Data Commons RNA-seq, patient SNPs,
// NCI60 drug screens) are not redistributable, so each generator
// plants learnable structure of the right kind instead:
//
//   - NT3-style classification: class-specific expression signatures
//     over tens of thousands of float features, so a 1-D CNN can
//     reach accuracy 1.0 as the paper reports;
//   - P1B1-style autoencoding: samples lie near a low-dimensional
//     linear manifold, so a bottleneck autoencoder can compress them;
//   - P1B2-style multiclass: sparse binary SNP-like features with
//     per-class signatures;
//   - P1B3-style regression: growth percentage as a noisy nonlinear
//     function of descriptor features.
//
// Generators produce both training-ready matrices (X, Y) and the raw
// CSV layout the benchmarks read with pandas (label column first for
// labelled sets), plus scaled-down variants for real in-process
// training.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"candle/internal/csvio"
	"candle/internal/tensor"
)

// Kind is the learning task a dataset supports.
type Kind int

// Dataset kinds.
const (
	Classification Kind = iota
	Autoencoder
	Regression
	// TextClassification samples are integer token sequences (one id
	// per feature column) with class-dependent marker tokens — the
	// clinical-text shape of the CANDLE P3 benchmarks.
	TextClassification
)

func (k Kind) String() string {
	switch k {
	case Classification:
		return "classification"
	case Autoencoder:
		return "autoencoder"
	case Regression:
		return "regression"
	case TextClassification:
		return "text-classification"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Card is a benchmark's training card: the hyperparameters Table 1 of
// the paper gives for it (this repository's choice for the
// Pilot2/Pilot3-style P2B1 and P3B1). Real runs train with it and the
// simulator prices it.
type Card struct {
	DefaultBatch  int
	DefaultEpochs int
	LearningRate  float64
	Optimizer     string
}

// Spec describes a dataset's shape and planted structure, and carries
// the benchmark's training card.
type Spec struct {
	Name         string
	Kind         Kind
	TrainSamples int
	TestSamples  int
	Features     int
	Classes      int // classification only
	// Latent is the planted structure dimension (autoencoder manifold
	// dim / signature sparsity scale).
	Latent int
	// NoiseStd is the additive observation noise.
	NoiseStd float64
	// SignalStrength scales the planted signal against the noise.
	SignalStrength float64
	// Vocab is the token-id alphabet size (TextClassification only).
	Vocab int
	// Card is the benchmark's training card.
	Card
}

// Validate reports malformed specs.
func (s Spec) Validate() error {
	switch {
	case s.TrainSamples <= 0 || s.Features <= 0:
		return fmt.Errorf("data: %s: need positive samples/features", s.Name)
	case (s.Kind == Classification || s.Kind == TextClassification) && s.Classes < 2:
		return fmt.Errorf("data: %s: classification needs ≥2 classes", s.Name)
	case s.Kind == TextClassification && s.Vocab < s.Classes+2:
		return fmt.Errorf("data: %s: vocab %d too small for %d classes", s.Name, s.Vocab, s.Classes)
	case s.TestSamples < 0:
		return fmt.Errorf("data: %s: negative test samples", s.Name)
	}
	return nil
}

// Scaled returns a copy with samples and features shrunk by the given
// divisors (minimum 8 samples / 4 features), used for real in-process
// training where the full 60k-feature shapes would be needlessly slow.
func (s Spec) Scaled(sampleDiv, featureDiv int) Spec {
	out := s
	out.Name = s.Name + "-scaled"
	out.TrainSamples = max(8, s.TrainSamples/sampleDiv)
	out.TestSamples = max(4, s.TestSamples/sampleDiv)
	out.Features = max(4, s.Features/featureDiv)
	out.Latent = max(2, min(s.Latent, out.Features/2))
	return out
}

// Dataset is a generated dataset split.
type Dataset struct {
	Spec Spec
	// X is samples×features; Y is the training target (one-hot for
	// classification, X itself for autoencoders, a single column for
	// regression).
	X, Y *tensor.Matrix
}

// Generate builds the train split for a spec; seed makes it
// deterministic. Use GenerateTest for the matching held-out split.
func Generate(spec Spec, seed int64) (*Dataset, error) {
	return generate(spec, spec.TrainSamples, seed)
}

// GenerateTest builds the test split with an independent stream but
// the same planted structure (signatures derive from the spec seed, so
// train and test are drawn from the same distribution).
func GenerateTest(spec Spec, seed int64) (*Dataset, error) {
	return generate(spec, spec.TestSamples, seed+1<<32)
}

func generate(spec Spec, samples int, seed int64) (*Dataset, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if samples <= 0 {
		return nil, fmt.Errorf("data: %s: no samples requested", spec.Name)
	}
	// The planted structure must be identical for train and test, so
	// it always comes from a structure RNG seeded only by the spec.
	structRNG := rand.New(rand.NewSource(structSeed(spec)))
	sampleRNG := rand.New(rand.NewSource(seed))
	switch spec.Kind {
	case Classification:
		return genClassification(spec, samples, structRNG, sampleRNG), nil
	case Autoencoder:
		return genAutoencoder(spec, samples, structRNG, sampleRNG), nil
	case Regression:
		return genRegression(spec, samples, structRNG, sampleRNG), nil
	case TextClassification:
		return genText(spec, samples, sampleRNG), nil
	default:
		return nil, fmt.Errorf("data: %s: unknown kind %v", spec.Name, spec.Kind)
	}
}

// quantize rounds to 4 decimal places — the precision real
// RNA-seq/FPKM CSV exports carry. Besides realism, short cells are
// exactly what the optimized loader's fast byte scanner feeds on.
func quantize(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// structSeed derives the planted-structure seed from the spec's
// identity so train/test share it.
func structSeed(spec Spec) int64 {
	h := int64(1469598103934665603)
	for _, c := range spec.Name {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h ^ int64(spec.Features)<<16 ^ int64(spec.Classes)<<8
}

func genClassification(spec Spec, samples int, structRNG, sampleRNG *rand.Rand) *Dataset {
	sig := spec.SignalStrength
	if sig == 0 {
		sig = 2.0
	}
	noise := spec.NoiseStd
	if noise == 0 {
		noise = 1.0
	}
	// Per-class signature: a sparse set of marker features shifted by
	// ±sig, like differentially expressed genes.
	markers := max(spec.Latent, spec.Features/10)
	if markers > spec.Features {
		markers = spec.Features
	}
	type marker struct {
		idx   int
		shift float64
	}
	sigs := make([][]marker, spec.Classes)
	for c := range sigs {
		perm := structRNG.Perm(spec.Features)[:markers]
		sigs[c] = make([]marker, markers)
		for i, idx := range perm {
			shift := sig
			if structRNG.Float64() < 0.5 {
				shift = -sig
			}
			sigs[c][i] = marker{idx: idx, shift: shift}
		}
	}
	x := tensor.New(samples, spec.Features)
	y := tensor.New(samples, spec.Classes)
	for i := 0; i < samples; i++ {
		cls := i % spec.Classes
		row := x.Row(i)
		for j := range row {
			row[j] = sampleRNG.NormFloat64() * noise
		}
		for _, mk := range sigs[cls] {
			row[mk.idx] += mk.shift
		}
		for j := range row {
			row[j] = quantize(row[j])
		}
		y.Set(i, cls, 1)
	}
	return &Dataset{Spec: spec, X: x, Y: y}
}

func genAutoencoder(spec Spec, samples int, structRNG, sampleRNG *rand.Rand) *Dataset {
	latent := spec.Latent
	if latent <= 0 {
		latent = max(2, spec.Features/50)
	}
	noise := spec.NoiseStd
	if noise == 0 {
		noise = 0.1
	}
	// Samples near a linear manifold: x = z·W + ε.
	w := tensor.RandNormal(structRNG, latent, spec.Features, 1/math.Sqrt(float64(latent)))
	z := tensor.RandNormal(sampleRNG, samples, latent, 1)
	x := tensor.MatMul(z, w)
	for i := range x.Data {
		x.Data[i] = quantize(x.Data[i] + sampleRNG.NormFloat64()*noise)
	}
	return &Dataset{Spec: spec, X: x, Y: x}
}

func genRegression(spec Spec, samples int, structRNG, sampleRNG *rand.Rand) *Dataset {
	noise := spec.NoiseStd
	if noise == 0 {
		noise = 0.05
	}
	// Growth = σ(x·w/√d + quadratic term), a smooth nonlinear response
	// a small MLP can fit but not trivially.
	w := make([]float64, spec.Features)
	w2 := make([]float64, spec.Features)
	for j := range w {
		w[j] = structRNG.NormFloat64()
		w2[j] = structRNG.NormFloat64() * 0.3
	}
	// Drug-descriptor features are small integer counts/fingerprints
	// (this is also why the P1B3 CSV rows are so compact in Table 1);
	// the response depends on their standardized values.
	x := tensor.New(samples, spec.Features)
	y := tensor.New(samples, 1)
	scale := 1 / math.Sqrt(float64(spec.Features))
	for i := 0; i < samples; i++ {
		row := x.Row(i)
		lin, quad := 0.0, 0.0
		for j := range row {
			raw := float64(sampleRNG.Intn(10))
			row[j] = raw
			v := (raw - 4.5) / 2.872 // standardized
			lin += v * w[j]
			quad += v * v * w2[j]
		}
		g := 1/(1+math.Exp(-(lin*scale+quad*scale))) + sampleRNG.NormFloat64()*noise
		y.Set(i, 0, g)
	}
	return &Dataset{Spec: spec, X: x, Y: y}
}

// genText builds token sequences where tokens [0, Classes) are class
// markers: a sample of class c contains several copies of marker c
// among background tokens drawn from the rest of the vocabulary.
func genText(spec Spec, samples int, sampleRNG *rand.Rand) *Dataset {
	x := tensor.New(samples, spec.Features)
	y := tensor.New(samples, spec.Classes)
	markers := max(1, spec.Features/10)
	for i := 0; i < samples; i++ {
		cls := i % spec.Classes
		row := x.Row(i)
		for t := range row {
			row[t] = float64(spec.Classes + sampleRNG.Intn(spec.Vocab-spec.Classes))
		}
		for k := 0; k < markers; k++ {
			row[sampleRNG.Intn(spec.Features)] = float64(cls)
		}
		y.Set(i, cls, 1)
	}
	return &Dataset{Spec: spec, X: x, Y: y}
}

// RawCSV returns the dataset in the on-disk layout the benchmarks
// read: label column first for classification (the class index) and
// regression (the response), features only for autoencoders.
func (d *Dataset) RawCSV() *tensor.Matrix {
	switch d.Spec.Kind {
	case Autoencoder:
		return d.X
	case Regression:
		out := tensor.New(d.X.Rows, d.X.Cols+1)
		for i := 0; i < d.X.Rows; i++ {
			out.Set(i, 0, d.Y.At(i, 0))
			copy(out.Row(i)[1:], d.X.Row(i))
		}
		return out
	default: // Classification: integer class label first
		out := tensor.New(d.X.Rows, d.X.Cols+1)
		for i := 0; i < d.X.Rows; i++ {
			out.Set(i, 0, float64(argmaxRow(d.Y.Row(i))))
			copy(out.Row(i)[1:], d.X.Row(i))
		}
		return out
	}
}

func argmaxRow(v []float64) int {
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// WriteCSV writes the dataset's raw layout to path.
func (d *Dataset) WriteCSV(path string) error {
	return csvio.WriteCSV(path, d.RawCSV())
}

// FromRawCSV reconstructs (X, Y) matrices from the raw on-disk layout
// for the given spec — the "preprocessing" part of the benchmarks'
// data-loading phase.
func FromRawCSV(spec Spec, raw *tensor.Matrix) (x, y *tensor.Matrix, err error) {
	switch spec.Kind {
	case Autoencoder:
		if raw.Cols != spec.Features {
			return nil, nil, fmt.Errorf("data: %s: raw has %d cols, want %d", spec.Name, raw.Cols, spec.Features)
		}
		return raw, raw, nil
	case Regression:
		if raw.Cols != spec.Features+1 {
			return nil, nil, fmt.Errorf("data: %s: raw has %d cols, want %d", spec.Name, raw.Cols, spec.Features+1)
		}
		x = tensor.New(raw.Rows, spec.Features)
		y = tensor.New(raw.Rows, 1)
		for i := 0; i < raw.Rows; i++ {
			y.Set(i, 0, raw.At(i, 0))
			copy(x.Row(i), raw.Row(i)[1:])
		}
		return x, y, nil
	case Classification, TextClassification:
		if raw.Cols != spec.Features+1 {
			return nil, nil, fmt.Errorf("data: %s: raw has %d cols, want %d", spec.Name, raw.Cols, spec.Features+1)
		}
		x = tensor.New(raw.Rows, spec.Features)
		y = tensor.New(raw.Rows, spec.Classes)
		for i := 0; i < raw.Rows; i++ {
			cls := int(raw.At(i, 0))
			if cls < 0 || cls >= spec.Classes {
				return nil, nil, fmt.Errorf("data: %s: row %d label %d outside %d classes", spec.Name, i, cls, spec.Classes)
			}
			y.Set(i, cls, 1)
			copy(x.Row(i), raw.Row(i)[1:])
		}
		return x, y, nil
	default:
		return nil, nil, fmt.Errorf("data: unknown kind %v", spec.Kind)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
