package nn

import (
	"fmt"
	"math/rand"

	"candle/internal/tensor"
)

// Conv1D is a 1-D convolution over a steps×channels signal flattened
// into each input row as [step0ch0 step0ch1 ... step1ch0 ...]. Valid
// padding, stride 1, matching the layers used by the CANDLE NT3
// benchmark.
//
// The implementation lowers the convolution to a matrix multiply
// (im2col): the B×(steps·inCh) batch becomes a
// (B·outSteps)×(kernel·inCh) patch matrix which is multiplied by the
// (kernel·inCh)×filters weight matrix.
type Conv1D struct {
	Filters int
	Kernel  int
	InCh    int // channels of the input signal

	name     string
	steps    int // input steps, fixed at Build
	outSteps int
	w, b     *Param
	patches  *tensor.Matrix // cached im2col matrix for backward (reused)
	// src is whichever matrix held this step's patches: c.patches in
	// general, or a reshaped view of the input for 1×1 kernels, where
	// im2col is the identity and the staging copy is skipped.
	src       *tensor.Matrix
	patchView *tensor.Matrix
	batch     int
	// Reusable step buffers: the flat matmul result, its B-major view,
	// the backward view of dout, the patch gradient, and dx.
	flat, out, dflat, dpatch, dx *tensor.Matrix
}

// pointwise reports whether the convolution is 1×1, in which case
// every patch row is exactly one input step.
func (c *Conv1D) pointwise() bool { return c.Kernel == 1 }

// NewConv1D returns a valid-padding, stride-1 Conv1D layer with the
// given filter count, kernel width, and input channel count.
func NewConv1D(filters, kernel, inCh int) *Conv1D {
	return &Conv1D{
		Filters: filters, Kernel: kernel, InCh: inCh,
		name: fmt.Sprintf("conv1d_f%d_k%d", filters, kernel),
	}
}

// Name implements Layer.
func (c *Conv1D) Name() string { return c.name }

// Build implements Layer.
func (c *Conv1D) Build(rng *rand.Rand, inDim int) (int, error) {
	switch {
	case c.Filters <= 0 || c.Kernel <= 0 || c.InCh <= 0:
		return 0, fmt.Errorf("nn: conv1d needs positive filters/kernel/channels, got %d/%d/%d", c.Filters, c.Kernel, c.InCh)
	case inDim%c.InCh != 0:
		return 0, fmt.Errorf("nn: conv1d input dim %d not divisible by %d channels", inDim, c.InCh)
	}
	c.steps = inDim / c.InCh
	if c.steps < c.Kernel {
		return 0, fmt.Errorf("nn: conv1d kernel %d longer than %d input steps", c.Kernel, c.steps)
	}
	c.outSteps = c.steps - c.Kernel + 1
	c.w = newParam(c.name+".w", tensor.GlorotUniform(rng, c.Kernel*c.InCh, c.Filters))
	c.b = newParam(c.name+".b", tensor.New(1, c.Filters))
	return c.outSteps * c.Filters, nil
}

// Forward implements Layer.
func (c *Conv1D) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	c.batch = x.Rows
	k := c.Kernel * c.InCh
	if c.pointwise() {
		// 1×1 kernel: the patch matrix is the input reshaped to one
		// step per row, so stage a view instead of copying.
		if c.patchView == nil {
			c.patchView = &tensor.Matrix{}
		}
		c.patchView.Rows, c.patchView.Cols, c.patchView.Data = x.Rows*c.outSteps, k, x.Data
		c.src = c.patchView
	} else {
		// Window t is steps t..t+kernel-1, contiguous in the row.
		c.patches = ensure(c.patches, x.Rows*c.outSteps, k)
		for r := 0; r < x.Rows; r++ {
			row := x.Row(r)
			for t := 0; t < c.outSteps; t++ {
				copy(c.patches.Row(r*c.outSteps+t), row[t*c.InCh:][:k])
			}
		}
		c.src = c.patches
	}
	c.flat = ensure(c.flat, x.Rows*c.outSteps, c.Filters)
	tensor.MatMulInto(c.flat, c.src, c.w.Value) // (B·outSteps)×filters
	c.flat.AddRowVector(c.b.Value.Data)
	// Reshape (B·outSteps)×filters into B×(outSteps·filters); the
	// row-major layouts coincide, so the view is just a header sharing
	// flat's storage.
	if c.out == nil {
		c.out = &tensor.Matrix{}
	}
	c.out.Rows, c.out.Cols, c.out.Data = x.Rows, c.outSteps*c.Filters, c.flat.Data
	return c.out
}

// Backward implements Layer.
func (c *Conv1D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	// View dout as (B·outSteps)×filters.
	if c.dflat == nil {
		c.dflat = &tensor.Matrix{}
	}
	c.dflat.Rows, c.dflat.Cols, c.dflat.Data = c.batch*c.outSteps, c.Filters, dout.Data
	dflat := c.dflat
	addGrad(c.w.Grad, func(dst *tensor.Matrix) { tensor.TMatMulInto(dst, c.src, dflat) })
	dflat.AccumColSums(c.b.Grad.Data)
	k := c.Kernel * c.InCh
	c.dpatch = ensure(c.dpatch, c.batch*c.outSteps, k)
	tensor.MatMulTInto(c.dpatch, dflat, c.w.Value) // (B·outSteps)×(kernel·inCh)
	dpatch := c.dpatch
	if c.pointwise() {
		// The patch gradient IS dx, one step per row: reshape in place.
		if c.dx == nil {
			c.dx = &tensor.Matrix{}
		}
		c.dx.Rows, c.dx.Cols, c.dx.Data = c.batch, c.steps*c.InCh, dpatch.Data
		return c.dx
	}
	c.dx = ensure(c.dx, c.batch, c.steps*c.InCh)
	c.dx.Zero()
	dx := c.dx
	// Scatter each patch gradient back onto its window, windows in
	// ascending order.
	for r := 0; r < c.batch; r++ {
		drow := dx.Row(r)
		for t := 0; t < c.outSteps; t++ {
			window := drow[t*c.InCh : t*c.InCh+k]
			for i, g := range dpatch.Row(r*c.outSteps + t) {
				window[i] += g
			}
		}
	}
	return dx
}

// Params implements Layer.
func (c *Conv1D) Params() []*Param { return []*Param{c.w, c.b} }

// MaxPooling1D downsamples a steps×channels signal by taking the max
// over non-overlapping windows of Pool steps (stride == pool size, as
// in Keras' default). Trailing steps that do not fill a window are
// dropped.
type MaxPooling1D struct {
	statelessBase
	Pool int
	Ch   int // channels of the input signal

	steps    int
	outSteps int
	argmax   []int // flat index into input for each output element
	batch    int
	out, dx  *tensor.Matrix // reusable buffers
}

// NewMaxPooling1D returns a max-pooling layer with the given window
// size over a Ch-channel signal.
func NewMaxPooling1D(pool, ch int) *MaxPooling1D { return &MaxPooling1D{Pool: pool, Ch: ch} }

// Name implements Layer.
func (p *MaxPooling1D) Name() string { return fmt.Sprintf("maxpool1d_%d", p.Pool) }

// Build implements Layer.
func (p *MaxPooling1D) Build(_ *rand.Rand, inDim int) (int, error) {
	switch {
	case p.Pool <= 0 || p.Ch <= 0:
		return 0, fmt.Errorf("nn: maxpool needs positive pool/channels, got %d/%d", p.Pool, p.Ch)
	case inDim%p.Ch != 0:
		return 0, fmt.Errorf("nn: maxpool input dim %d not divisible by %d channels", inDim, p.Ch)
	}
	p.steps = inDim / p.Ch
	p.outSteps = p.steps / p.Pool
	if p.outSteps == 0 {
		return 0, fmt.Errorf("nn: maxpool window %d larger than %d steps", p.Pool, p.steps)
	}
	return p.outSteps * p.Ch, nil
}

// Forward implements Layer.
func (p *MaxPooling1D) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	p.batch = x.Rows
	if p.Pool == 1 && p.outSteps == p.steps {
		// Windows of one step: pooling is the identity, so pass the
		// input through instead of copying it.
		return x
	}
	p.out = ensure(p.out, x.Rows, p.outSteps*p.Ch)
	out := p.out
	if n := x.Rows * p.outSteps * p.Ch; cap(p.argmax) >= n {
		p.argmax = p.argmax[:n]
	} else {
		p.argmax = make([]int, n)
	}
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		orow := out.Row(r)
		for t := 0; t < p.outSteps; t++ {
			for ch := 0; ch < p.Ch; ch++ {
				bestIdx := (t*p.Pool)*p.Ch + ch
				best := row[bestIdx]
				for w := 1; w < p.Pool; w++ {
					idx := (t*p.Pool+w)*p.Ch + ch
					if row[idx] > best {
						best, bestIdx = row[idx], idx
					}
				}
				oi := t*p.Ch + ch
				orow[oi] = best
				p.argmax[r*p.outSteps*p.Ch+oi] = bestIdx
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *MaxPooling1D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if p.Pool == 1 && p.outSteps == p.steps {
		return dout // identity forward, identity gradient
	}
	p.dx = ensure(p.dx, p.batch, p.steps*p.Ch)
	p.dx.Zero()
	dx := p.dx
	w := p.outSteps * p.Ch
	for r := 0; r < p.batch; r++ {
		drow := dout.Row(r)
		xrow := dx.Row(r)
		for i := 0; i < w; i++ {
			xrow[p.argmax[r*w+i]] += drow[i]
		}
	}
	return dx
}
