// Package nn is a from-scratch, Keras-like neural-network framework:
// sequential models built from layers (Dense, Conv1D, MaxPooling1D,
// Flatten, Dropout, Activation), trained with SGD/Adam/RMSprop against
// cross-entropy or MSE losses.
//
// It exists because the CANDLE Pilot1 benchmarks this repository
// reproduces are Keras models; nn provides the same three concepts the
// paper's methodology manipulates — the *epoch loop*, the *batch-step
// loop*, and the *optimizer* that Horovod wraps — with real gradient
// math so that distributed data-parallel training actually trains.
//
// All data is batch-major: a batch of B samples with D features is a
// B×D tensor.Matrix. Structured layers (Conv1D, pooling) interpret the
// D axis as steps×channels.
package nn

import (
	"fmt"
	"math/rand"

	"candle/internal/tensor"
)

// Param is one trainable tensor (weights or bias) together with the
// gradient accumulated by the most recent backward pass.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// newParam allocates a parameter and its zeroed gradient.
func newParam(name string, value *tensor.Matrix) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Rows, value.Cols)}
}

// ensure returns a rows×cols matrix, reusing buf's storage when it is
// big enough. Layers keep their forward/backward outputs in such
// reusable buffers so a steady-state training step (fixed batch size)
// allocates nothing. Contents are unspecified: callers must fully
// overwrite (every Into kernel does) or Zero first.
func ensure[T tensor.Float](buf *tensor.Mat[T], rows, cols int) *tensor.Mat[T] {
	if buf == nil {
		return tensor.NewMat[T](rows, cols)
	}
	if buf.Rows == rows && buf.Cols == cols {
		return buf
	}
	if cap(buf.Data) >= rows*cols {
		buf.Rows, buf.Cols, buf.Data = rows, cols, buf.Data[:rows*cols]
		return buf
	}
	return tensor.NewMat[T](rows, cols)
}

// ensureVec is ensure for flat scratch vectors.
func ensureVec[T tensor.Float](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// addGrad accumulates op's result into the f64 gradient grad without
// allocating in steady state: the product lands in an arena scratch
// matrix of op's precision, is widened as it is added, and the scratch
// goes straight back to the pool.
func addGrad[T tensor.Float](grad *tensor.Matrix, op func(dst *tensor.Mat[T])) {
	s := tensor.GetMat[T](grad.Rows, grad.Cols)
	op(s)
	for i, v := range s.Data {
		grad.Data[i] += float64(v)
	}
	tensor.PutMat(s)
}

// Layer is one stage of a Sequential model. Build is called once with
// the flattened input width; Forward must cache whatever Backward
// needs. Backward receives dL/d(output) and returns dL/d(input) while
// accumulating parameter gradients into Params().
type Layer interface {
	Name() string
	// Build allocates parameters for the given input width and
	// returns the output width.
	Build(rng *rand.Rand, inDim int) (outDim int, err error)
	Forward(x *tensor.Matrix, training bool) *tensor.Matrix
	Backward(dout *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// statelessBase provides the no-param default for layers without
// trainable state.
type statelessBase struct{}

func (statelessBase) Params() []*Param { return nil }

// Dense is a fully connected layer: y = x·W + b.
//
// Under DType F32 (see Sequential.SetDType) the layer runs its matmuls
// natively in float32 on demoted weight shadows, fusing the bias add
// and — when Compile elided the following Activation layer into it —
// the nonlinearity into one pass over the f32 output. Master weights,
// gradients, and the Layer interface stay float64.
type Dense struct {
	Units int
	name  string
	w, b  *Param
	x     *tensor.Matrix // cached input
	out   *tensor.Matrix // reusable forward buffer
	dx    *tensor.Matrix // reusable backward buffer

	dtype tensor.DType
	fuse  string // activation kind fused into the f32 forward ("" = none)
	// f32 shadows and reusable buffers (nil until first F32 forward)
	w32, b32   *tensor.Matrix32
	x32, y32   *tensor.Matrix32 // demoted input; fused post-activation output
	dz32, dx32 *tensor.Matrix32
	db32       []float32
}

// NewDense returns a Dense layer with the given number of output
// units.
func NewDense(units int) *Dense {
	return &Dense{Units: units, name: fmt.Sprintf("dense_%d", units)}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Build implements Layer.
func (d *Dense) Build(rng *rand.Rand, inDim int) (int, error) {
	if d.Units <= 0 {
		return 0, fmt.Errorf("nn: dense units must be positive, got %d", d.Units)
	}
	if inDim <= 0 {
		return 0, fmt.Errorf("nn: dense input dim must be positive, got %d", inDim)
	}
	d.w = newParam(d.name+".w", tensor.GlorotUniform(rng, inDim, d.Units))
	d.b = newParam(d.name+".b", tensor.New(1, d.Units))
	return d.Units, nil
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	if d.dtype == tensor.F32 {
		return d.forward32(x)
	}
	d.x = x
	d.out = ensure(d.out, x.Rows, d.Units)
	tensor.MatMulInto(d.out, x, d.w.Value)
	d.out.AddRowVector(d.b.Value.Data)
	return d.out
}

// Backward implements Layer.
func (d *Dense) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if d.dtype == tensor.F32 {
		return d.backward32(dout)
	}
	// dW = xᵀ·dout, db = column sums of dout, dx = dout·Wᵀ.
	addGrad(d.w.Grad, func(dst *tensor.Matrix) { tensor.TMatMulInto(dst, d.x, dout) })
	dout.AccumColSums(d.b.Grad.Data)
	d.dx = ensure(d.dx, dout.Rows, d.w.Value.Rows)
	tensor.MatMulTInto(d.dx, dout, d.w.Value)
	return d.dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Flatten is an explicit no-op on the already-flat representation; it
// exists so benchmark model definitions read like their Keras
// counterparts.
type Flatten struct{ statelessBase }

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

func (*Flatten) Name() string { return "flatten" }

func (*Flatten) Build(_ *rand.Rand, inDim int) (int, error) { return inDim, nil }

func (*Flatten) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix { return x }

func (*Flatten) Backward(dout *tensor.Matrix) *tensor.Matrix { return dout }

// Dropout randomly zeroes a fraction Rate of activations during
// training, scaling survivors by 1/(1-Rate) (inverted dropout), and is
// the identity at inference time.
type Dropout struct {
	statelessBase
	Rate   float64
	rng    *rand.Rand
	mask   *tensor.Matrix
	masked bool           // whether mask applies to the last forward
	out    *tensor.Matrix // reusable forward buffer
	dx     *tensor.Matrix // reusable backward buffer
}

// NewDropout returns a Dropout layer with drop probability rate in
// [0, 1).
func NewDropout(rate float64) *Dropout { return &Dropout{Rate: rate} }

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("dropout_%.2f", d.Rate) }

// Build implements Layer.
func (d *Dropout) Build(rng *rand.Rand, inDim int) (int, error) {
	if d.Rate < 0 || d.Rate >= 1 {
		return 0, fmt.Errorf("nn: dropout rate %v outside [0,1)", d.Rate)
	}
	d.rng = rng
	return inDim, nil
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	if !training || d.Rate == 0 {
		d.masked = false
		return x
	}
	d.masked = true
	keep := 1 - d.Rate
	d.mask = ensure(d.mask, x.Rows, x.Cols)
	d.out = ensure(d.out, x.Rows, x.Cols)
	inv := 1 / keep
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask.Data[i] = inv
			d.out.Data[i] = v * inv
		} else {
			d.mask.Data[i] = 0
			d.out.Data[i] = 0
		}
	}
	return d.out
}

// Backward implements Layer.
func (d *Dropout) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if !d.masked {
		return dout
	}
	d.dx = ensure(d.dx, dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		d.dx.Data[i] = v * d.mask.Data[i]
	}
	return d.dx
}
