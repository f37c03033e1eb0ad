package nn

import "candle/internal/tensor"

// This file is the float32 compute path of Dense, the layer that
// dominates the pilots' step time. Fusing bias and activation over
// demoted shadows is a different algorithm from the f64 path, so Dense
// keeps a forward and backward of its own here; the LSTM's f32 path is
// the same recurrence as its f64 one and shares it (lstm.go).
//
// The design is mixed precision in the classic sense: float64 master
// weights, gradients, optimizer state, and collectives, with the
// forward/backward matmuls and pointwise math running in float32 on
// per-step demoted shadows. Promotion back to f64 happens only at the
// Layer interface boundary and when accumulating parameter gradients,
// so the rest of the stack (losses, optimizers, Horovod, checkpoints)
// is untouched.

// fuseBiasAct32 applies y = act(y + b) row-wise in one pass — the
// fused tail of the f32 Dense forward.
func fuseBiasAct32(m *tensor.Matrix32, bias []float32, kind string) {
	switch kind {
	case "relu":
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for j, bv := range bias {
				v := row[j] + bv
				if v < 0 {
					v = 0
				}
				row[j] = v
			}
		}
	case "sigmoid":
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for j, bv := range bias {
				row[j] = sigmoid(row[j] + bv)
			}
		}
	case "tanh":
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for j, bv := range bias {
				row[j] = tanh(row[j] + bv)
			}
		}
	default:
		m.AddRowVector(bias)
	}
}

// actBackward32 multiplies dz by the activation derivative expressed
// in terms of the cached post-activation output y.
func actBackward32(dz, y *tensor.Matrix32, kind string) {
	switch kind {
	case "relu":
		for i, v := range y.Data {
			if v <= 0 {
				dz.Data[i] = 0
			}
		}
	case "sigmoid":
		for i, v := range y.Data {
			dz.Data[i] *= v * (1 - v)
		}
	case "tanh":
		for i, v := range y.Data {
			dz.Data[i] *= 1 - v*v
		}
	}
}

func (d *Dense) setDType(dt tensor.DType) { d.dtype = dt }

// forward32 is the fused f32 Dense forward: demote input and weight
// shadows, one packed f32 matmul, then a single pass applying bias and
// (when fused) the activation, promoted to f64 at the boundary.
func (d *Dense) forward32(x *tensor.Matrix) *tensor.Matrix {
	d.x = x
	in := d.w.Value.Rows
	B := x.Rows
	d.x32 = ensure(d.x32, B, in)
	tensor.DemoteInto(d.x32, x)
	d.w32 = ensure(d.w32, in, d.Units)
	tensor.DemoteInto(d.w32, d.w.Value)
	d.b32 = ensure(d.b32, 1, d.Units)
	tensor.DemoteInto(d.b32, d.b.Value)
	d.y32 = ensure(d.y32, B, d.Units)
	tensor.MatMulInto(d.y32, d.x32, d.w32)
	fuseBiasAct32(d.y32, d.b32.Data, d.fuse)
	d.out = ensure(d.out, B, d.Units)
	tensor.PromoteInto(d.out, d.y32)
	return d.out
}

// backward32 mirrors the f64 backward in f32: the fused activation
// derivative is applied to the demoted upstream gradient (the elided
// Activation layer passed it through untouched), then dW/db/dx come
// from the packed f32 kernels, with parameter gradients promoted into
// the f64 masters.
func (d *Dense) backward32(dout *tensor.Matrix) *tensor.Matrix {
	B := dout.Rows
	in := d.w.Value.Rows
	d.dz32 = ensure(d.dz32, B, d.Units)
	tensor.DemoteInto(d.dz32, dout)
	actBackward32(d.dz32, d.y32, d.fuse)
	addGrad(d.w.Grad, func(dst *tensor.Matrix32) { tensor.TMatMulInto(dst, d.x32, d.dz32) })
	d.db32 = ensureVec(d.db32, d.Units)
	for j := range d.db32 {
		d.db32[j] = 0
	}
	d.dz32.AccumColSums(d.db32)
	for j, v := range d.db32 {
		d.b.Grad.Data[j] += float64(v)
	}
	d.dx32 = ensure(d.dx32, B, in)
	tensor.MatMulTInto(d.dx32, d.dz32, d.w32)
	d.dx = ensure(d.dx, B, in)
	tensor.PromoteInto(d.dx, d.dx32)
	return d.dx
}
