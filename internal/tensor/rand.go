package tensor

import (
	"math"
	"math/rand"
)

// RandNormal returns a rows×cols matrix with N(0, std²) entries drawn
// from rng, which must not be nil so results stay deterministic.
func RandNormal(rng *rand.Rand, rows, cols int, std float64) *Matrix {
	return randNormal[float64](rng, rows, cols, std)
}

// RandNormal32 is RandNormal rounded to float32: the same draws from
// the same rng.
func RandNormal32(rng *rand.Rand, rows, cols int, std float64) *Matrix32 {
	return randNormal[float32](rng, rows, cols, std)
}

func randNormal[T Float](rng *rand.Rand, rows, cols int, std float64) *Mat[T] {
	m := NewMat[T](rows, cols)
	for i := range m.Data {
		m.Data[i] = T(rng.NormFloat64() * std)
	}
	return m
}

// RandUniform returns a rows×cols matrix with entries uniform in
// [lo, hi).
func RandUniform(rng *rand.Rand, rows, cols int, lo, hi float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = lo + rng.Float64()*(hi-lo)
	}
	return m
}

// GlorotUniform returns a fanIn×fanOut weight matrix initialized with
// the Glorot/Xavier uniform scheme Keras uses by default, which keeps
// activation variance stable across layers.
func GlorotUniform(rng *rand.Rand, fanIn, fanOut int) *Matrix {
	limit := 0.0
	if fanIn+fanOut > 0 {
		limit = math.Sqrt(6.0 / float64(fanIn+fanOut))
	}
	return RandUniform(rng, fanIn, fanOut, -limit, limit)
}
