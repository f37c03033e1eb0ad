// Package tensor provides the dense numeric containers and parallel
// linear-algebra kernels that the neural-network framework in
// internal/nn is built on. There is one matrix type, Mat[T], row-major
// over float32 or float64: an R×C matrix stores element (i, j) at
// Data[i*C+j]. Matrix (= Mat[float64]) is what models, optimizers and
// collectives hold; Matrix32 (= Mat[float32]) is what the F32 compute
// path demotes into at a layer boundary.
//
// The package is deliberately small: matrices, a handful of BLAS-like
// kernels (matmul, transposed variants, axpy, scale), reductions, and
// element-wise maps, each written once over T. Three mechanisms make
// the hot path production grade:
//
//   - Destination-passing kernels (MatMulInto, MatMulTInto,
//     TMatMulInto, TransposeInto, ColSumsInto) write caller-owned
//     matrices so steady-state training steps allocate nothing.
//   - A sync.Pool-backed scratch arena (Get/Put) recycles temporaries.
//   - A persistent worker pool, sized to GOMAXPROCS once at init,
//     is a hard goroutine budget shared by all concurrent kernel
//     callers, so R rank-goroutines never oversubscribe the machine.
//
// The element type selects only the matmul leaf (kernels.go): float32
// always runs the packed register-tiled driver in pack.go, with an AVX
// tile where the host has one; float64 runs the cache-blocked kernels,
// and the packed driver only for wide aᵀ·b. Every leaf accumulates each
// output element in the same order as a naive triple loop, so all of
// them are bit-exact against a serial reference on finite inputs.
package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// Float is the element constraint of Mat and every kernel.
type Float interface{ float32 | float64 }

// Mat is a dense row-major matrix over T.
type Mat[T Float] struct {
	Rows, Cols int
	Data       []T
}

// Matrix and Matrix32 are the two instantiations in use: float64 for
// everything a model owns, float32 for the F32 compute path.
type (
	Matrix   = Mat[float64]
	Matrix32 = Mat[float32]
)

// is32 reports whether T is float32; it is a constant in each
// instantiation, so branching on it costs nothing at run time.
func is32[T Float]() bool {
	var z T
	return unsafe.Sizeof(z) == 4
}

// NewMat returns a zeroed rows×cols matrix over T.
func NewMat[T Float](rows, cols int) *Mat[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Mat[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// New returns a zeroed rows×cols float64 matrix.
func New(rows, cols int) *Matrix { return NewMat[float64](rows, cols) }

// New32 returns a zeroed rows×cols float32 matrix.
func New32(rows, cols int) *Matrix32 { return NewMat[float32](rows, cols) }

// FromSlice wraps data (not copied) as a rows×cols matrix.
// len(data) must equal rows*cols.
func FromSlice[T Float](rows, cols int, data []T) *Mat[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice size mismatch: %d != %d*%d", len(data), rows, cols))
	}
	return &Mat[T]{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of m.
func (m *Mat[T]) Clone() *Mat[T] {
	out := NewMat[T](m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns element (i, j).
func (m *Mat[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Mat[T]) Row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element to 0 in place.
func (m *Mat[T]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Mat[T]) Fill(v T) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and n have identical dimensions.
func (m *Mat[T]) SameShape(n *Mat[T]) bool { return m.Rows == n.Rows && m.Cols == n.Cols }

func (m *Mat[T]) shapeCheck(n *Mat[T], op string) {
	if !m.SameShape(n) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, n.Rows, n.Cols))
	}
}

// Add sets m += n in place and returns m.
func (m *Mat[T]) Add(n *Mat[T]) *Mat[T] {
	m.shapeCheck(n, "Add")
	for i, v := range n.Data {
		m.Data[i] += v
	}
	return m
}

// Sub sets m -= n in place and returns m.
func (m *Mat[T]) Sub(n *Mat[T]) *Mat[T] {
	m.shapeCheck(n, "Sub")
	for i, v := range n.Data {
		m.Data[i] -= v
	}
	return m
}

// MulElem sets m *= n element-wise in place and returns m.
func (m *Mat[T]) MulElem(n *Mat[T]) *Mat[T] {
	m.shapeCheck(n, "MulElem")
	for i, v := range n.Data {
		m.Data[i] *= v
	}
	return m
}

// Scale multiplies every element by s in place and returns m.
func (m *Mat[T]) Scale(s T) *Mat[T] {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AXPY sets m += a*n in place and returns m.
func (m *Mat[T]) AXPY(a T, n *Mat[T]) *Mat[T] {
	m.shapeCheck(n, "AXPY")
	for i, v := range n.Data {
		m.Data[i] += a * v
	}
	return m
}

// Apply replaces each element x with f(x) in place and returns m.
func (m *Mat[T]) Apply(f func(T) T) *Mat[T] {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
	return m
}

// Map returns a new matrix whose elements are f applied to m's.
func (m *Mat[T]) Map(f func(T) T) *Mat[T] {
	out := NewMat[T](m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Mat[T]) Sum() T {
	var s T
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Max returns the largest element; it panics on an empty matrix.
func (m *Mat[T]) Max() T {
	if len(m.Data) == 0 {
		panic("tensor: Max of empty matrix")
	}
	mx := m.Data[0]
	for _, v := range m.Data[1:] {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// Norm2 returns the Frobenius norm.
func (m *Mat[T]) Norm2() float64 {
	var s T
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(float64(s))
}

// AddRowVector adds vector v (length m.Cols) to every row of m in
// place, in parallel for large matrices (it sits on every Dense and
// Conv1D forward as the bias add).
func (m *Mat[T]) AddRowVector(v []T) *Mat[T] {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	if serialRows(m.Rows, m.Rows*m.Cols) {
		addRowVectorRange(m, v, 0, m.Rows)
		return m
	}
	parallelRows(m.Rows, m.Rows*m.Cols, func(lo, hi int) {
		addRowVectorRange(m, v, lo, hi)
	})
	return m
}

func addRowVectorRange[T Float](m *Mat[T], v []T, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.Row(i)[:len(v)]
		for j, bv := range v {
			row[j] += bv
		}
	}
}

// ColSums returns a length-Cols vector of per-column sums.
func (m *Mat[T]) ColSums() []T {
	out := make([]T, m.Cols)
	m.ColSumsInto(out)
	return out
}

// ColSumsInto overwrites dst (length m.Cols) with per-column sums.
// Large matrices are split by column range across the worker pool:
// each worker walks the rows but touches only its contiguous column
// slice, so reads cover the matrix exactly once and writes stay
// disjoint.
func (m *Mat[T]) ColSumsInto(dst []T) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSumsInto length %d != cols %d", len(dst), m.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	m.AccumColSums(dst)
}

// AccumColSums adds per-column sums of m into dst (length m.Cols) —
// the accumulation the bias-gradient path of every layer needs.
func (m *Mat[T]) AccumColSums(dst []T) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: AccumColSums length %d != cols %d", len(dst), m.Cols))
	}
	if serialRows(m.Cols, m.Rows*m.Cols) {
		accumColSumsRange(m, dst, 0, m.Cols)
		return
	}
	parallelRows(m.Cols, m.Rows*m.Cols, func(lo, hi int) {
		accumColSumsRange(m, dst, lo, hi)
	})
}

func accumColSumsRange[T Float](m *Mat[T], dst []T, lo, hi int) {
	out := dst[lo:hi]
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)[lo:hi]
		for j, v := range row {
			out[j] += v
		}
	}
}

// RowSlice returns a new matrix holding rows [lo, hi) of m. The data
// is shared with m (a view), so mutations are visible both ways.
func (m *Mat[T]) RowSlice(lo, hi int) *Mat[T] {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: RowSlice [%d,%d) out of range for %d rows", lo, hi, m.Rows))
	}
	return &Mat[T]{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Equal reports whether m and n are identical in shape and elements.
func (m *Mat[T]) Equal(n *Mat[T]) bool {
	if !m.SameShape(n) {
		return false
	}
	for i, v := range m.Data {
		if n.Data[i] != v {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether m and n agree element-wise within tol.
func (m *Mat[T]) AlmostEqual(n *Mat[T], tol float64) bool {
	if !m.SameShape(n) {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(float64(n.Data[i])-float64(v)) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Mat[T]) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// Conversions. The F32 path stores f64 master weights (optimizers and
// collectives stay f64) and demotes at the layer boundary; these are
// the two directions of that boundary.

// DemoteInto rounds src (f64) into dst (f32). Shapes must match.
func DemoteInto(dst *Matrix32, src *Matrix) { convertInto(dst, src, "DemoteInto") }

// PromoteInto widens src (f32) into dst (f64). Shapes must match.
func PromoteInto(dst *Matrix, src *Matrix32) { convertInto(dst, src, "PromoteInto") }

// DemoteSlice rounds src into dst element-wise; lengths must match.
func DemoteSlice(dst []float32, src []float64) { convertSlice(dst, src, "DemoteSlice") }

// PromoteSlice widens src into dst element-wise; lengths must match.
func PromoteSlice(dst []float64, src []float32) { convertSlice(dst, src, "PromoteSlice") }

func convertInto[D, S Float](dst *Mat[D], src *Mat[S], op string) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	convertSlice(dst.Data, src.Data, op)
}

func convertSlice[D, S Float](dst []D, src []S, op string) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: %s length %d != %d", op, len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = D(v)
	}
}
