package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"candle/internal/tensor"
)

// The scalar loops Step ran before the fused, partitioned driver, kept
// as the reference the driver's leaves are held to: three passes for
// SGD-momentum, and for Adam three divides and a square root per
// element on bias-corrected moments.

type refBase struct{ lr float64 }

func (r *refBase) Name() string               { return "reference" }
func (r *refBase) LearningRate() float64      { return r.lr }
func (r *refBase) SetLearningRate(lr float64) { r.lr = lr }

func refState(st map[*Param]*tensor.Matrix, p *Param) *tensor.Matrix {
	m, ok := st[p]
	if !ok {
		m = tensor.New(p.Value.Rows, p.Value.Cols)
		st[p] = m
	}
	return m
}

type refSGDMomentum struct {
	refBase
	momentum float64
	vel      map[*Param]*tensor.Matrix
}

func (s *refSGDMomentum) Step(params []*Param) {
	for _, p := range params {
		v := refState(s.vel, p)
		v.Scale(s.momentum).AXPY(-s.lr, p.Grad)
		p.Value.Add(v)
	}
}

type refRMSprop struct {
	refBase
	rho, eps float64
	v        map[*Param]*tensor.Matrix
}

func (r *refRMSprop) Step(params []*Param) {
	for _, p := range params {
		v := refState(r.v, p)
		for i, g := range p.Grad.Data {
			v.Data[i] = r.rho*v.Data[i] + (1-r.rho)*g*g
			p.Value.Data[i] -= r.lr * g / (math.Sqrt(v.Data[i]) + r.eps)
		}
	}
}

type refAdam struct {
	refBase
	beta1, beta2, eps float64
	t                 int
	m, v              map[*Param]*tensor.Matrix
}

func (a *refAdam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for _, p := range params {
		m, v := refState(a.m, p), refState(a.v, p)
		for i, g := range p.Grad.Data {
			m.Data[i] = a.beta1*m.Data[i] + (1-a.beta1)*g
			v.Data[i] = a.beta2*v.Data[i] + (1-a.beta2)*g*g
			mhat := m.Data[i] / c1
			vhat := v.Data[i] / c2
			p.Value.Data[i] -= a.lr * mhat / (math.Sqrt(vhat) + a.eps)
		}
	}
}

// NewReferenceAdam is refAdam with NewAdam's defaults, exported for the
// P1B1 comparison in package nn_test.
func NewReferenceAdam(lr float64) Optimizer {
	return &refAdam{refBase: refBase{lr}, beta1: 0.9, beta2: 0.999, eps: 1e-7,
		m: map[*Param]*tensor.Matrix{}, v: map[*Param]*tensor.Matrix{}}
}

// updateCases pairs each stateful optimizer with its reference and the
// relative distance it may keep from it: 0 is bit-identical. Adam's
// folded bias correction rounds sqrt(v)*c2^-½ where the reference
// rounds sqrt(v/c2).
var updateCases = []struct {
	name         string
	tol          float64
	fresh        func() StatefulOptimizer
	ref          func() Optimizer
	parentLayout func(ref Optimizer, params []*Param) [][]float64 // of the reference's state
}{
	{"sgd_momentum", 0,
		func() StatefulOptimizer { return NewSGDMomentum(0.05, 0.9) },
		func() Optimizer {
			return &refSGDMomentum{refBase: refBase{0.05}, momentum: 0.9, vel: map[*Param]*tensor.Matrix{}}
		},
		func(ref Optimizer, params []*Param) [][]float64 {
			return perParam(params, ref.(*refSGDMomentum).vel)
		}},
	{"rmsprop", 0,
		func() StatefulOptimizer { return NewRMSprop(0.01) },
		func() Optimizer {
			return &refRMSprop{refBase: refBase{0.01}, rho: 0.9, eps: 1e-7, v: map[*Param]*tensor.Matrix{}}
		},
		func(ref Optimizer, params []*Param) [][]float64 {
			return perParam(params, ref.(*refRMSprop).v)
		}},
	{"adam", 1e-12,
		func() StatefulOptimizer { return NewAdam(0.01) },
		func() Optimizer { return NewReferenceAdam(0.01) },
		func(ref Optimizer, params []*Param) [][]float64 {
			a := ref.(*refAdam)
			return append([][]float64{{float64(a.t)}}, perParam(params, a.m, a.v)...)
		}},
}

// perParam lays state out as the parent commit's CaptureState did: for
// each parameter in order, one vector from each map in turn.
func perParam(params []*Param, maps ...map[*Param]*tensor.Matrix) [][]float64 {
	var out [][]float64
	for _, p := range params {
		for _, st := range maps {
			out = append(out, st[p].Data)
		}
	}
	return out
}

// randParams returns one 1×n parameter per length, with weights drawn
// from seed.
func randParams(seed int64, lengths ...int) []*Param {
	rng := rand.New(rand.NewSource(seed))
	params := make([]*Param, len(lengths))
	for i, n := range lengths {
		params[i] = newParam(fmt.Sprintf("w%d", i), tensor.RandNormal(rng, 1, n, 1))
	}
	return params
}

// randStep fills the gradients of params with fresh values in [-1, 1)
// and applies one step of opt. rng seeds an inline xorshift: two
// million draws from rng itself cost the race build seconds a test.
func randStep(opt Optimizer, params []*Param, rng *rand.Rand) {
	x := rng.Uint64() | 1
	for _, p := range params {
		for i := range p.Grad.Data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			p.Grad.Data[i] = float64(x>>11)/(1<<52) - 1
		}
	}
	opt.Step(params)
}

func sameWeights(t *testing.T, what string, got, want []*Param, tol float64) {
	t.Helper()
	for i := range want {
		for k, w := range want[i].Value.Data {
			g := got[i].Value.Data[k]
			if g != w && !(math.Abs(g-w) <= tol*math.Abs(w)) {
				t.Fatalf("%s: param %d elem %d: got %v, want %v (tolerance %g)", what, i, k, g, w, tol)
			}
		}
	}
}

// TestUpdateMatchesReference: 50 steps on the same gradients leave the
// fused leaves on the reference loops' weights — bit for bit where the
// arithmetic is the same, within rounding for Adam — and leave the
// state, which depends on the gradients alone, bit-identical in the
// parent's captured layout for all three.
func TestUpdateMatchesReference(t *testing.T) {
	for _, tc := range updateCases {
		t.Run(tc.name, func(t *testing.T) {
			opt, ref := tc.fresh(), tc.ref()
			params, refParams := randParams(3, 7, 300, 1), randParams(3, 7, 300, 1)
			rng, refRNG := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
			for step := 0; step < 50; step++ {
				randStep(opt, params, rng)
				randStep(ref, refParams, refRNG)
			}
			sameWeights(t, "after 50 steps", params, refParams, tc.tol)
			got, want := opt.CaptureState(params), tc.parentLayout(ref, refParams)
			if len(got) != len(want) {
				t.Fatalf("captured %d vectors, the parent's layout has %d", len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("captured vector %d differs from the parent's layout", i)
				}
			}
		})
	}
}

// TestUpdatePartitionIndependent: the update is element-wise, so one
// worker and four land on the same bits at every length — below the
// dispatch threshold, just above it, and at comm_unix's 2 032 128 —
// however the range is cut.
func TestUpdatePartitionIndependent(t *testing.T) {
	lengths := []int{1, 7, 65537, 2032128}
	for _, tc := range updateCases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) []*Param {
				defer tensor.SetWorkers(tensor.SetWorkers(workers))
				opt, params := tc.fresh(), randParams(5, lengths...)
				rng := rand.New(rand.NewSource(6))
				for step := 0; step < 3; step++ {
					randStep(opt, params, rng)
				}
				return params
			}
			sameWeights(t, "4 workers against 1", run(4), run(1), 0)
		})
	}
}

// TestParentLayoutStateResumes: state laid out as the parent commit
// captured it (built here from the reference loops' maps, not from
// CaptureState) restores into a fresh optimizer that then continues on
// the bits of the uninterrupted run, so the parent's checkpoints resume.
func TestParentLayoutStateResumes(t *testing.T) {
	for _, tc := range updateCases {
		t.Run(tc.name, func(t *testing.T) {
			opt, ref := tc.fresh(), tc.ref()
			params, refParams := randParams(7, 5, 129), randParams(7, 5, 129)
			rng, refRNG := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
			for step := 0; step < 4; step++ {
				randStep(opt, params, rng)
				randStep(ref, refParams, refRNG)
			}
			resumed, resumedParams := tc.fresh(), cloneParams(params)
			if err := resumed.RestoreState(resumedParams, tc.parentLayout(ref, refParams)); err != nil {
				t.Fatal(err)
			}
			rngA, rngB := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			for step := 0; step < 3; step++ {
				randStep(opt, params, rngA)
				randStep(resumed, resumedParams, rngB)
			}
			sameWeights(t, "resumed against uninterrupted", resumedParams, params, 0)
		})
	}
}

// BenchmarkOptimizerStep times one update at the two P1B1 sizes the
// benchmark trains (p1b1_f32 and comm_unix), as that model's two wide
// matrices and their biases, and reports ns per element.
func BenchmarkOptimizerStep(b *testing.B) {
	for _, tc := range updateCases {
		for _, size := range []struct {
			name     string
			features int
		}{{"508k", 1008}, {"2.03M", 2016}} {
			b.Run(tc.name+"/"+size.name, func(b *testing.B) {
				f, h := size.features, size.features/4
				params := randParams(10, f*h, h, h*f, f)
				opt, rng := tc.fresh(), rand.New(rand.NewSource(11))
				randStep(opt, params, rng)
				elems := 0
				for _, p := range params {
					elems += len(p.Value.Data)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opt.Step(params)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/element")
			})
		}
	}
}
