package tensor

import "fmt"

// DType selects the storage/compute precision of a model's hot path.
// The paper's CANDLE pilots are float32 Keras models; F32 halves the
// memory traffic that bounds matmul throughput (an f32 run is 1.8x
// faster per epoch end to end: benchmark/README.md, finding 8), at the
// cost of ~7 decimal digits of precision.
type DType uint8

const (
	// F64 is the historical default: every matrix is float64.
	F64 DType = iota
	// F32 runs the compute-heavy layers on float32 storage and packed
	// float32 kernels, converting at layer boundaries.
	F32
)

// String returns the flag-style name ("f64", "f32").
func (d DType) String() string {
	switch d {
	case F32:
		return "f32"
	default:
		return "f64"
	}
}

// Bytes returns the storage width of one scalar.
func (d DType) Bytes() int {
	if d == F32 {
		return 4
	}
	return 8
}

// ParseDType parses a -dtype flag value. The empty string means F64,
// preserving the historical default.
func ParseDType(s string) (DType, error) {
	switch s {
	case "", "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	default:
		return F64, fmt.Errorf("tensor: unknown dtype %q (want f32 or f64)", s)
	}
}
