package data

import (
	"strings"
	"testing"

	"candle/internal/tensor"
)

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Classification:     "classification",
		Autoencoder:        "autoencoder",
		Regression:         "regression",
		TextClassification: "text-classification",
		Kind(99):           "kind(99)",
	} {
		if k.String() != want {
			t.Fatalf("%v.String() = %q", int(k), k.String())
		}
	}
}

func TestAllSpecsValidate(t *testing.T) {
	for _, s := range []Spec{NT3(), P1B1(), P1B2(), P1B3(), P2B1(), P3B1()} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if s.DefaultBatch <= 0 || s.DefaultEpochs <= 0 || s.LearningRate <= 0 || s.Optimizer == "" {
			t.Fatalf("%s: incomplete training card %+v", s.Name, s.Card)
		}
	}
}

func TestTextSpecValidation(t *testing.T) {
	bad := P3B1()
	bad.Vocab = 3 // < classes+2
	if err := bad.Validate(); err == nil {
		t.Fatal("tiny vocab accepted")
	}
}

func TestGenerateTestDiffersFromTrain(t *testing.T) {
	spec := NT3().Scaled(40, 1500)
	tr, err := Generate(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	te, err := GenerateTest(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if te.X.Rows != spec.TestSamples {
		t.Fatalf("test rows = %d", te.X.Rows)
	}
	// Same structure, different samples.
	if tr.X.RowSlice(0, 1).AlmostEqual(te.X.RowSlice(0, 1), 1e-12) {
		t.Fatal("test split duplicates train rows")
	}
}

func TestTextGeneratorProperties(t *testing.T) {
	spec := P3B1().Scaled(40, 10)
	spec.Vocab = 30
	d, err := Generate(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.X.Rows; i++ {
		cls := -1
		for c := 0; c < spec.Classes; c++ {
			if d.Y.At(i, c) == 1 {
				cls = c
			}
		}
		if cls < 0 {
			t.Fatalf("row %d has no label", i)
		}
		// The class marker token must appear in the sequence.
		found := false
		for _, v := range d.X.Row(i) {
			if int(v) == cls {
				found = true
			}
			if v < 0 || int(v) >= spec.Vocab {
				t.Fatalf("token %v outside vocab", v)
			}
		}
		if !found {
			t.Fatalf("row %d (class %d) lacks its marker token", i, cls)
		}
	}
}

func TestRawCSVTextLayout(t *testing.T) {
	spec := P3B1().Scaled(120, 25)
	spec.Vocab = 20
	d, err := Generate(spec, 6)
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
	if !x.Equal(d.X) || !y.Equal(d.Y) {
		t.Fatal("text raw round trip mismatch")
	}
}

func TestFromRawCSVAutoencoderAndErrors(t *testing.T) {
	spec := P1B1().Scaled(90, 2000)
	d, err := Generate(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, y, err := FromRawCSV(spec, d.RawCSV())
	if err != nil {
		t.Fatal(err)
	}
	if x != y {
		t.Fatal("autoencoder split should alias")
	}
	wrong := spec
	wrong.Features += 3
	if _, _, err := FromRawCSV(wrong, d.RawCSV()); err == nil {
		t.Fatal("autoencoder width mismatch accepted")
	}
	// Regression width mismatch.
	rspec := P1B3().Scaled(10000, 100)
	rd, err := Generate(rspec, 2)
	if err != nil {
		t.Fatal(err)
	}
	rwrong := rspec
	rwrong.Features++
	if _, _, err := FromRawCSV(rwrong, rd.RawCSV()); err == nil {
		t.Fatal("regression width mismatch accepted")
	}
	// Unknown kind.
	ukSpec := rspec
	ukSpec.Kind = Kind(42)
	if _, _, err := FromRawCSV(ukSpec, tensor.New(2, rspec.Features+1)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestGenerateUnknownKindAndZeroSamples(t *testing.T) {
	s := NT3().Scaled(40, 1500)
	s.Kind = Kind(42)
	if _, err := Generate(s, 1); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("unknown kind: %v", err)
	}
	z := NT3().Scaled(40, 1500)
	z.TestSamples = 0
	if _, err := GenerateTest(z, 1); err == nil {
		t.Fatal("zero test samples accepted")
	}
}
