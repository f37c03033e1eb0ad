package data

import (
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"candle/internal/csvio"
	"candle/internal/nn"
)

func TestSpecsMatchTable1(t *testing.T) {
	nt3 := NT3()
	if nt3.TrainSamples != 1120 || nt3.Features != 60483 || nt3.Classes != 2 {
		t.Fatalf("NT3 spec: %+v", nt3)
	}
	p1b1 := P1B1()
	if p1b1.TrainSamples != 2700 || p1b1.Features != 60484 || p1b1.Kind != Autoencoder {
		t.Fatalf("P1B1 spec: %+v", p1b1)
	}
	p1b2 := P1B2()
	if p1b2.TrainSamples != 2700 || p1b2.Features != 28204 || p1b2.Kind != Classification {
		t.Fatalf("P1B2 spec: %+v", p1b2)
	}
	p1b3 := P1B3()
	if p1b3.TrainSamples != 900100 || p1b3.Features != 1000 || p1b3.Kind != Regression {
		t.Fatalf("P1B3 spec: %+v", p1b3)
	}
}

func TestValidate(t *testing.T) {
	bad := Spec{Name: "x", Kind: Classification, TrainSamples: 10, Features: 5, Classes: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("1-class classification accepted")
	}
	bad2 := Spec{Name: "x", TrainSamples: 0, Features: 5}
	if err := bad2.Validate(); err == nil {
		t.Fatal("0 samples accepted")
	}
	if _, err := Generate(bad, 1); err == nil {
		t.Fatal("Generate accepted invalid spec")
	}
}

func TestScaled(t *testing.T) {
	s := NT3().Scaled(10, 100)
	if s.TrainSamples != 112 || s.Features != 604 {
		t.Fatalf("Scaled: %+v", s)
	}
	tiny := NT3().Scaled(10000, 100000)
	if tiny.TrainSamples < 8 || tiny.Features < 4 {
		t.Fatalf("Scaled floor violated: %+v", tiny)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := NT3().Scaled(40, 600)
	a, err := Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !a.X.Equal(b.X) || !a.Y.Equal(b.Y) {
		t.Fatal("same seed produced different data")
	}
	c, err := Generate(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.X.Equal(c.X) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestClassificationShapeAndBalance(t *testing.T) {
	spec := P1B2().Scaled(30, 500)
	d, err := Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.X.Rows != spec.TrainSamples || d.X.Cols != spec.Features {
		t.Fatalf("X shape %dx%d", d.X.Rows, d.X.Cols)
	}
	if d.Y.Cols != spec.Classes {
		t.Fatalf("Y cols %d", d.Y.Cols)
	}
	counts := make([]int, spec.Classes)
	for i := 0; i < d.Y.Rows; i++ {
		row := d.Y.Row(i)
		ones := 0
		for c, v := range row {
			if v == 1 {
				counts[c]++
				ones++
			} else if v != 0 {
				t.Fatalf("Y not one-hot at row %d: %v", i, row)
			}
		}
		if ones != 1 {
			t.Fatalf("row %d has %d hot entries", i, ones)
		}
	}
	// Round-robin assignment keeps classes balanced within 1.
	for c := 1; c < spec.Classes; c++ {
		if diff := counts[c] - counts[0]; diff < -1 || diff > 1 {
			t.Fatalf("class balance off: %v", counts)
		}
	}
}

func TestAutoencoderTargetsAreInputs(t *testing.T) {
	d, err := Generate(P1B1().Scaled(60, 800), 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.X != d.Y {
		t.Fatal("autoencoder Y should alias X")
	}
}

func TestRegressionResponseRange(t *testing.T) {
	d, err := Generate(P1B3().Scaled(3000, 20), 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Y.Cols != 1 {
		t.Fatalf("regression Y cols = %d", d.Y.Cols)
	}
	// σ(·) plus small noise keeps growth within a loose (−0.5, 1.5).
	for i, v := range d.Y.Data {
		if v < -0.5 || v > 1.5 {
			t.Fatalf("growth %d = %v out of range", i, v)
		}
	}
}

func TestTrainTestShareStructure(t *testing.T) {
	// A model trained on the train split must beat chance on the test
	// split — i.e. the planted signatures are shared.
	spec := NT3().Scaled(20, 1500) // 56 samples, 40 features
	tr, err := Generate(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	te, err := GenerateTest(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := nn.NewSequential("probe",
		nn.NewDense(16), nn.NewReLU(), nn.NewDense(2), nn.NewSoftmax())
	if err := m.Compile(spec.Features, nn.CategoricalCrossEntropy{}, nn.NewSGD(0.05), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(tr.X, tr.Y, nn.FitConfig{Epochs: 40, BatchSize: 8, Shuffle: true}); err != nil {
		t.Fatal(err)
	}
	_, acc := m.Evaluate(te.X, te.Y)
	if acc < 0.8 {
		t.Fatalf("test accuracy %v — train/test do not share structure", acc)
	}
}

func TestRawCSVRoundTripClassification(t *testing.T) {
	spec := NT3().Scaled(80, 3000)
	d, err := Generate(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	raw := d.RawCSV()
	if raw.Cols != spec.Features+1 {
		t.Fatalf("raw cols = %d", raw.Cols)
	}
	x, y, err := FromRawCSV(spec, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !x.AlmostEqual(d.X, 1e-12) || !y.AlmostEqual(d.Y, 1e-12) {
		t.Fatal("raw round trip mismatch")
	}
}

func TestRawCSVRoundTripRegression(t *testing.T) {
	spec := P1B3().Scaled(10000, 50)
	d, err := Generate(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	x, y, err := FromRawCSV(spec, d.RawCSV())
	if err != nil {
		t.Fatal(err)
	}
	if !x.AlmostEqual(d.X, 1e-12) || !y.AlmostEqual(d.Y, 1e-12) {
		t.Fatal("regression raw round trip mismatch")
	}
}

func TestFromRawCSVValidation(t *testing.T) {
	spec := NT3().Scaled(80, 3000)
	d, _ := Generate(spec, 5)
	wrong := spec
	wrong.Features++
	if _, _, err := FromRawCSV(wrong, d.RawCSV()); err == nil {
		t.Fatal("feature mismatch accepted")
	}
	raw := d.RawCSV().Clone()
	raw.Set(0, 0, 99) // label outside class range
	if _, _, err := FromRawCSV(spec, raw); err == nil {
		t.Fatal("label out of range accepted")
	}
}

func TestDiskRoundTripThroughAllReaders(t *testing.T) {
	spec := P1B2().Scaled(60, 1500)
	d, err := Generate(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p1b2.csv")
	if err := d.WriteCSV(path); err != nil {
		t.Fatal(err)
	}
	for _, r := range csvio.Readers() {
		raw, _, err := r.Read(path)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		x, y, err := FromRawCSV(spec, raw)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if !x.AlmostEqual(d.X, 1e-9) || !y.AlmostEqual(d.Y, 1e-9) {
			t.Fatalf("%s: disk round trip mismatch", r.Name())
		}
	}
}

// Property: every generated classification dataset has rows whose
// class mean differs from the global mean (the signal exists).
func TestQuickClassSignalExists(t *testing.T) {
	f := func(seed int64) bool {
		spec := NT3().Scaled(56, 4000) // 20 samples, 15 features
		d, err := Generate(spec, seed)
		if err != nil {
			return false
		}
		// Mean feature vector per class.
		m0 := make([]float64, spec.Features)
		m1 := make([]float64, spec.Features)
		n0, n1 := 0, 0
		for i := 0; i < d.X.Rows; i++ {
			if d.Y.At(i, 0) == 1 {
				for j, v := range d.X.Row(i) {
					m0[j] += v
				}
				n0++
			} else {
				for j, v := range d.X.Row(i) {
					m1[j] += v
				}
				n1++
			}
		}
		dist := 0.0
		for j := range m0 {
			diff := m0[j]/float64(n0) - m1[j]/float64(n1)
			dist += diff * diff
		}
		return math.Sqrt(dist) > 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
