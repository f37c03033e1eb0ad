package nn

import (
	"fmt"
	"math"

	"candle/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients. Step
// consumes the gradients (the caller zeroes them afterwards via
// ZeroGrads). SetLearningRate exists because the paper's methodology
// scales the learning rate linearly with the number of workers.
type Optimizer interface {
	Name() string
	LearningRate() float64
	SetLearningRate(lr float64)
	Step(params []*Param)
}

// StatefulOptimizer is implemented by optimizers that accumulate
// internal per-parameter state across steps — Adam's moment estimates
// and step count, RMSprop's squared-gradient average. Checkpoints
// capture that state alongside the weights so a resumed run continues
// bit-identically to an uninterrupted one; restoring weights alone
// would silently reset the optimizer and fork the trajectory.
type StatefulOptimizer interface {
	Optimizer
	// CaptureState flattens the optimizer's internal state for params
	// (in the given order) into vectors. Scalar state (Adam's step
	// count) travels in its own vector.
	CaptureState(params []*Param) [][]float64
	// RestoreState installs state previously captured over the same
	// parameter list in the same order. nil or empty state resets the
	// optimizer to fresh; a shape mismatch is an error.
	RestoreState(params []*Param, state [][]float64) error
}

// slots is the per-parameter state of a stateful optimizer: for each
// parameter, up to two vectors of the parameter's length (RMSprop's
// squared-gradient average; Adam's m and v), zeroed when the parameter
// takes its first step. An unused vector stays nil.
type slots map[*Param][2][]float64

// update is the one parameter-update driver. For each parameter it
// finds the state once and runs leaf over the element range: on the
// caller below the kernel pool's threshold, split over the pool above
// it. A leaf is element-wise, so where the range is cut cannot change a
// bit of the result. k carries the step's constants by value.
func update[K any](st *slots, vecs int, params []*Param, k K, leaf func(w, g []float64, s [2][]float64, lo, hi int, k K)) {
	if *st == nil {
		*st = make(slots, len(params))
	}
	for _, p := range params {
		w, g := p.Value.Data, p.Grad.Data
		s, ok := (*st)[p]
		if !ok {
			for j := 0; j < vecs; j++ {
				s[j] = make([]float64, len(w))
			}
			(*st)[p] = s
		}
		if tensor.SerialRange(len(w)) {
			leaf(w, g, s, 0, len(w), k)
			continue
		}
		tensor.ParallelRange(len(w), func(lo, hi int) { leaf(w, g, s, lo, hi, k) })
	}
}

// capture flattens vecs state vectors per parameter, in parameter
// order, after the vectors of head. A parameter that has not stepped
// yet captures zeros.
func (st slots) capture(vecs int, params []*Param, head ...[]float64) [][]float64 {
	out := append(make([][]float64, 0, len(head)+vecs*len(params)), head...)
	for _, p := range params {
		for j := 0; j < vecs; j++ {
			vec := make([]float64, len(p.Value.Data))
			copy(vec, st[p][j])
			out = append(out, vec)
		}
	}
	return out
}

// restore installs what capture(vecs, params) flattened into state, and
// leaves st alone when a vector count or length does not fit params.
// Empty state resets st to fresh.
func (st *slots) restore(name string, vecs int, params []*Param, state [][]float64) error {
	if len(state) == 0 {
		*st = nil
		return nil
	}
	if len(state) != vecs*len(params) {
		return fmt.Errorf("nn: %s state has %d vectors, want %d", name, len(state), vecs*len(params))
	}
	fresh := make(slots, len(params))
	for i, p := range params {
		var s [2][]float64
		for j := 0; j < vecs; j++ {
			vec := state[vecs*i+j]
			if len(vec) != len(p.Value.Data) {
				return fmt.Errorf("nn: %s state vector %d of param %d has %d elems, param has %d", name, j, i, len(vec), len(p.Value.Data))
			}
			s[j] = append([]float64(nil), vec...)
		}
		fresh[p] = s
	}
	*st = fresh
	return nil
}

// SGD is plain stochastic gradient descent, matching the Keras "sgd"
// optimizer used by NT3 and P1B3. It carries no state between steps,
// so it is not a StatefulOptimizer and checkpoints hold no state for
// it.
type SGD struct {
	LR float64
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// LearningRate implements Optimizer.
func (s *SGD) LearningRate() float64 { return s.LR }

// SetLearningRate implements Optimizer.
func (s *SGD) SetLearningRate(lr float64) { s.LR = lr }

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		p.Value.AXPY(-s.LR, p.Grad)
	}
}

// Adam is adaptive moment estimation, matching the Keras "adam"
// optimizer used by P1B1.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	t       int
	mv      slots // m, v
}

// NewAdam returns an Adam optimizer with Keras defaults
// (beta1=0.9, beta2=0.999, eps=1e-7).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-7}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// LearningRate implements Optimizer.
func (a *Adam) LearningRate() float64 { return a.LR }

// SetLearningRate implements Optimizer.
func (a *Adam) SetLearningRate(lr float64) { a.LR = lr }

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	update(&a.mv, 2, params, adamConsts{
		b1: a.Beta1, b2: a.Beta2, step: a.LR / c1, invSqrtC2: 1 / math.Sqrt(c2), eps: a.Epsilon,
	}, adamLeaf)
}

type adamConsts struct{ b1, b2, step, invSqrtC2, eps float64 }

// adamLeaf folds both bias corrections into the step's constants:
// lr*(m/c1) / (sqrt(v/c2) + eps) becomes step*m / (sqrt(v)*c2^-½ + eps),
// one square root and one divide per element.
func adamLeaf(w, g []float64, s [2][]float64, lo, hi int, k adamConsts) {
	w, g, m, v := w[lo:hi], g[lo:hi], s[0][lo:hi], s[1][lo:hi]
	omb1, omb2 := 1-k.b1, 1-k.b2
	for i, gi := range g {
		mi := k.b1*m[i] + omb1*gi
		vi := k.b2*v[i] + omb2*gi*gi
		m[i], v[i] = mi, vi
		w[i] -= k.step * mi / (math.Sqrt(vi)*k.invSqrtC2 + k.eps)
	}
}

// CaptureState implements StatefulOptimizer: the step count in its own
// vector, then interleaved (m, v) moment vectors per parameter.
func (a *Adam) CaptureState(params []*Param) [][]float64 {
	return a.mv.capture(2, params, []float64{float64(a.t)})
}

// RestoreState implements StatefulOptimizer.
func (a *Adam) RestoreState(params []*Param, state [][]float64) error {
	if len(state) == 0 {
		a.t, a.mv = 0, nil
		return nil
	}
	if len(state) != 1+2*len(params) || len(state[0]) != 1 {
		return fmt.Errorf("nn: adam state has %d vectors, want the step count and %d moments", len(state), 2*len(params))
	}
	if err := a.mv.restore("adam", 2, params, state[1:]); err != nil {
		return err
	}
	a.t = int(state[0][0])
	return nil
}

// RMSprop is root-mean-square propagation, matching the Keras
// "rmsprop" optimizer used by P1B2.
type RMSprop struct {
	LR      float64
	Rho     float64
	Epsilon float64
	v       slots
}

// NewRMSprop returns an RMSprop optimizer with Keras defaults
// (rho=0.9, eps=1e-7).
func NewRMSprop(lr float64) *RMSprop {
	return &RMSprop{LR: lr, Rho: 0.9, Epsilon: 1e-7}
}

// Name implements Optimizer.
func (r *RMSprop) Name() string { return "rmsprop" }

// LearningRate implements Optimizer.
func (r *RMSprop) LearningRate() float64 { return r.LR }

// SetLearningRate implements Optimizer.
func (r *RMSprop) SetLearningRate(lr float64) { r.LR = lr }

// Step implements Optimizer.
func (r *RMSprop) Step(params []*Param) {
	update(&r.v, 1, params, rmspropConsts{rho: r.Rho, lr: r.LR, eps: r.Epsilon}, rmspropLeaf)
}

type rmspropConsts struct{ rho, lr, eps float64 }

func rmspropLeaf(w, g []float64, s [2][]float64, lo, hi int, k rmspropConsts) {
	w, g, v := w[lo:hi], g[lo:hi], s[0][lo:hi]
	omrho := 1 - k.rho
	for i, gi := range g {
		vi := k.rho*v[i] + omrho*gi*gi
		v[i] = vi
		w[i] -= k.lr * gi / (math.Sqrt(vi) + k.eps)
	}
}

// CaptureState implements StatefulOptimizer: one squared-gradient
// average vector per parameter.
func (r *RMSprop) CaptureState(params []*Param) [][]float64 { return r.v.capture(1, params) }

// RestoreState implements StatefulOptimizer.
func (r *RMSprop) RestoreState(params []*Param, state [][]float64) error {
	return r.v.restore("rmsprop", 1, params, state)
}

// NewOptimizer constructs the optimizer a CANDLE config names:
// "sgd", "adam", or "rmsprop". Unknown names fall back to SGD, like
// the benchmarks' Python utilities do.
func NewOptimizer(name string, lr float64) Optimizer {
	switch name {
	case "adam":
		return NewAdam(lr)
	case "rmsprop":
		return NewRMSprop(lr)
	default:
		return NewSGD(lr)
	}
}
