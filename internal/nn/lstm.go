package nn

import (
	"fmt"
	"math"
	"math/rand"

	"candle/internal/tensor"
)

// LSTM is a long short-term memory layer over a steps×features signal
// flattened into each input row; it returns the final hidden state
// (Keras LSTM with return_sequences=False). The CANDLE P2/P3
// benchmarks the paper says parallelize "in a similar way" use
// recurrent layers of this kind over molecular-dynamics frames and
// clinical text.
type LSTM struct {
	Units int
	InDim int // features per step

	name  string
	steps int
	wx    *Param // InDim × 4U, gate order [i f g o]
	wh    *Param // U × 4U
	b     *Param // 1 × 4U

	batch int
	dtype tensor.DType
	// The recurrence and BPTT are written once over the element type
	// (lstmState). F64 runs them directly on the master weights and the
	// caller's matrices. F32 (see SetDType) runs them on the demoted
	// shadows below and promotes only the final hidden state, the
	// parameter gradients and dx; the four gate matmuls stay fused in
	// the 4U-wide wx/wh products either way.
	s64             lstmState[float64]
	s32             lstmState[float32]
	wx32, wh32, b32 *tensor.Matrix32
	xin32           *tensor.Matrix32
	db32            []float32
	hOut, dx        *tensor.Matrix
}

// lstmState holds, in one precision, what a forward pass caches for
// BPTT and the scratch both passes reuse.
type lstmState[T tensor.Float] struct {
	xs []*tensor.Mat[T] // per-step input B×InDim
	is []*tensor.Mat[T] // gate activations B×U
	fs []*tensor.Mat[T]
	gs []*tensor.Mat[T]
	os []*tensor.Mat[T]
	cs []*tensor.Mat[T] // cell states B×U
	hs []*tensor.Mat[T] // hidden states B×U

	zero                *tensor.Mat[T] // B×U zeros: initial h and c, and their BPTT stand-ins
	z, zh               *tensor.Mat[T] // gate pre-activation and its recurrent term
	dx, dh, dc, dz, dxt *tensor.Mat[T]
}

// ensureSteps sizes a per-step cache slice, reusing both the slice and
// the matrices it holds.
func ensureSteps[T tensor.Float](s []*tensor.Mat[T], steps, rows, cols int) []*tensor.Mat[T] {
	if cap(s) >= steps {
		s = s[:steps]
	} else {
		grown := make([]*tensor.Mat[T], steps)
		copy(grown, s)
		s = grown
	}
	for t := range s {
		s[t] = ensure(s[t], rows, cols)
	}
	return s
}

// NewLSTM returns an LSTM with the given hidden units over a signal
// with inDim features per step.
func NewLSTM(units, inDim int) *LSTM {
	return &LSTM{Units: units, InDim: inDim, name: fmt.Sprintf("lstm_%d", units)}
}

// Name implements Layer.
func (l *LSTM) Name() string { return l.name }

// Build implements Layer.
func (l *LSTM) Build(rng *rand.Rand, inDim int) (int, error) {
	switch {
	case l.Units <= 0 || l.InDim <= 0:
		return 0, fmt.Errorf("nn: lstm needs positive units/features")
	case inDim%l.InDim != 0:
		return 0, fmt.Errorf("nn: lstm input dim %d not divisible by %d features/step", inDim, l.InDim)
	}
	l.steps = inDim / l.InDim
	if l.steps == 0 {
		return 0, fmt.Errorf("nn: lstm needs at least one step")
	}
	l.wx = newParam(l.name+".wx", tensor.GlorotUniform(rng, l.InDim, 4*l.Units))
	l.wh = newParam(l.name+".wh", tensor.GlorotUniform(rng, l.Units, 4*l.Units))
	l.b = newParam(l.name+".b", tensor.New(1, 4*l.Units))
	// Forget-gate bias of 1 (the standard initialization) keeps early
	// gradients flowing.
	for j := l.Units; j < 2*l.Units; j++ {
		l.b.Value.Data[j] = 1
	}
	return l.Units, nil
}

func sigmoid[T tensor.Float](v T) T { return T(1 / (1 + math.Exp(float64(-v)))) }

func tanh[T tensor.Float](v T) T { return T(math.Tanh(float64(v))) }

func (l *LSTM) setDType(dt tensor.DType) { l.dtype = dt }

// Forward implements Layer.
func (l *LSTM) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	l.batch = x.Rows
	if l.dtype != tensor.F32 {
		return l.s64.forward(l, x, l.wx.Value, l.wh.Value, l.b.Value.Data)
	}
	l.xin32 = ensure(l.xin32, x.Rows, x.Cols)
	tensor.DemoteInto(l.xin32, x)
	l.wx32 = ensure(l.wx32, l.InDim, 4*l.Units)
	tensor.DemoteInto(l.wx32, l.wx.Value)
	l.wh32 = ensure(l.wh32, l.Units, 4*l.Units)
	tensor.DemoteInto(l.wh32, l.wh.Value)
	l.b32 = ensure(l.b32, 1, 4*l.Units)
	tensor.DemoteInto(l.b32, l.b.Value)
	h := l.s32.forward(l, l.xin32, l.wx32, l.wh32, l.b32.Data)
	l.hOut = ensure(l.hOut, h.Rows, h.Cols)
	tensor.PromoteInto(l.hOut, h)
	return l.hOut
}

// forward runs the recurrence over x (B × steps·InDim) with weights wx,
// wh and bias b, caching every step for backward, and returns the final
// hidden state (owned by s).
func (s *lstmState[T]) forward(l *LSTM, x, wx, wh *tensor.Mat[T], b []T) *tensor.Mat[T] {
	B, U := x.Rows, l.Units
	s.xs = ensureSteps(s.xs, l.steps, B, l.InDim)
	s.is = ensureSteps(s.is, l.steps, B, U)
	s.fs = ensureSteps(s.fs, l.steps, B, U)
	s.gs = ensureSteps(s.gs, l.steps, B, U)
	s.os = ensureSteps(s.os, l.steps, B, U)
	s.cs = ensureSteps(s.cs, l.steps, B, U)
	s.hs = ensureSteps(s.hs, l.steps, B, U)
	s.zero = ensure(s.zero, B, U)
	s.zero.Zero()
	s.z = ensure(s.z, B, 4*U)
	s.zh = ensure(s.zh, B, 4*U)

	h, c := s.zero, s.zero
	for t := 0; t < l.steps; t++ {
		xt := s.xs[t]
		for r := 0; r < B; r++ {
			copy(xt.Row(r), x.Row(r)[t*l.InDim:(t+1)*l.InDim])
		}
		z := s.z
		tensor.MatMulInto(z, xt, wx)
		tensor.MatMulInto(s.zh, h, wh)
		z.Add(s.zh)
		z.AddRowVector(b)

		it, ft, gt, ot := s.is[t], s.fs[t], s.gs[t], s.os[t]
		cNew, hNew := s.cs[t], s.hs[t]
		for r := 0; r < B; r++ {
			zr := z.Row(r)
			cr, crNew := c.Row(r), cNew.Row(r)
			ir, fr, gr, or := it.Row(r), ft.Row(r), gt.Row(r), ot.Row(r)
			hr := hNew.Row(r)
			for u := 0; u < U; u++ {
				iv := sigmoid(zr[u])
				fv := sigmoid(zr[U+u])
				gv := tanh(zr[2*U+u])
				ov := sigmoid(zr[3*U+u])
				ir[u], fr[u], gr[u], or[u] = iv, fv, gv, ov
				crNew[u] = fv*cr[u] + iv*gv
				hr[u] = ov * tanh(crNew[u])
			}
		}
		h, c = hNew, cNew
	}
	return h
}

// Backward implements Layer.
func (l *LSTM) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if l.dtype != tensor.F32 {
		return l.s64.backward(l, dout, l.wx.Value, l.wh.Value, l.b.Grad.Data)
	}
	s := &l.s32
	s.dh = ensure(s.dh, l.batch, l.Units)
	tensor.DemoteInto(s.dh, dout)
	// Bias sums accumulate in f32 across all steps and are promoted once.
	l.db32 = ensureVec(l.db32, 4*l.Units)
	for j := range l.db32 {
		l.db32[j] = 0
	}
	dx := s.backward(l, s.dh, l.wx32, l.wh32, l.db32)
	for j, v := range l.db32 {
		l.b.Grad.Data[j] += float64(v)
	}
	l.dx = ensure(l.dx, dx.Rows, dx.Cols)
	tensor.PromoteInto(l.dx, dx)
	return l.dx
}

// backward is BPTT over the steps the last forward cached. dh is
// dL/d(final hidden state): a caller's matrix, which is only read, or
// s.dh itself, which the first step then reuses. Weight gradients are
// accumulated into the f64 masters, bias column sums into db. It
// returns dL/dx (owned by s).
func (s *lstmState[T]) backward(l *LSTM, dh, wx, wh *tensor.Mat[T], db []T) *tensor.Mat[T] {
	B, U := l.batch, l.Units
	s.dx = ensure(s.dx, B, l.steps*l.InDim)
	s.dh = ensure(s.dh, B, U)
	s.dc = ensure(s.dc, B, U)
	s.dc.Zero()
	s.dz = ensure(s.dz, B, 4*U)
	s.dxt = ensure(s.dxt, B, l.InDim)
	dc, dz := s.dc, s.dz
	for t := l.steps - 1; t >= 0; t-- {
		it, ft, gt, ot := s.is[t], s.fs[t], s.gs[t], s.os[t]
		ct := s.cs[t]
		cPrev, hPrev := s.zero, s.zero
		if t > 0 {
			cPrev, hPrev = s.cs[t-1], s.hs[t-1]
		}
		for r := 0; r < B; r++ {
			dhr, dcr := dh.Row(r), dc.Row(r)
			ir, fr, gr, or := it.Row(r), ft.Row(r), gt.Row(r), ot.Row(r)
			cr, cpr := ct.Row(r), cPrev.Row(r)
			dzr := dz.Row(r)
			for u := 0; u < U; u++ {
				tc := tanh(cr[u])
				do := dhr[u] * tc
				dcTotal := dcr[u] + dhr[u]*or[u]*(1-tc*tc)
				di := dcTotal * gr[u]
				df := dcTotal * cpr[u]
				dg := dcTotal * ir[u]
				dzr[u] = di * ir[u] * (1 - ir[u])
				dzr[U+u] = df * fr[u] * (1 - fr[u])
				dzr[2*U+u] = dg * (1 - gr[u]*gr[u])
				dzr[3*U+u] = do * or[u] * (1 - or[u])
				dcr[u] = dcTotal * fr[u] // becomes dC_{t-1}
			}
		}
		// Parameter gradients.
		addGrad(l.wx.Grad, func(dst *tensor.Mat[T]) { tensor.TMatMulInto(dst, s.xs[t], dz) })
		addGrad(l.wh.Grad, func(dst *tensor.Mat[T]) { tensor.TMatMulInto(dst, hPrev, dz) })
		dz.AccumColSums(db)
		// Input and recurrent gradients.
		tensor.MatMulTInto(s.dxt, dz, wx)
		for r := 0; r < B; r++ {
			copy(s.dx.Row(r)[t*l.InDim:(t+1)*l.InDim], s.dxt.Row(r))
		}
		// With return_sequences=false, earlier steps receive only the
		// recurrent gradient. dh was fully consumed above, so s.dh can
		// be overwritten even when it is dh.
		tensor.MatMulTInto(s.dh, dz, wh)
		dh = s.dh
	}
	return s.dx
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }
