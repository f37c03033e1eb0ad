package tensor

import (
	"fmt"
	"unsafe"
)

// This file holds the matmul and transpose entry points and the
// cache-blocked leaves. Each kernel comes in a destination-passing
// Into form that writes a caller-owned matrix (so steady-state
// training steps allocate nothing) plus an allocating wrapper, and
// splits row ranges across the shared worker pool.
//
// The element type picks the leaf a row range runs on, and nothing
// else. float32 always takes the packed driver in pack.go: its AVX tile
// is what makes f32 1.8x faster per epoch end to end. float64 takes the
// blocked kernels below — tiled over k and j with 4-way unrolled inner
// loops — for a·b and a·bᵀ, and the packed driver only for aᵀ·b with a
// wide output. f64 a·b and a·bᵀ are deliberately not on the packed
// driver: measured end to end, packing does not amortise at the small
// batches the f64 workloads run (batch 4: whole-run time +5–12 %,
// median request latency +20 %).
//
// Accumulation order per output element is k-increasing with one
// addition per term in every leaf, identical to a naive triple loop,
// so results are bit-exact against a serial reference on finite inputs
// whichever leaf runs.

// Tile sizes, in elements. A k×j block of b spans matMulKC·matMulJC
// float64s (1 MiB), sized to sit in a per-core L2/LLC slice while a row
// range of the output streams against it.
const (
	matMulKC = 256
	matMulJC = 512
	// tMatMulIC bounds the dst rows live in one aᵀ·b accumulation
	// sweep: 64×matMulJC float64s (256 KiB) of dst stay L2-resident
	// while the k loop streams over a and b.
	tMatMulIC = 64
	// transposeBlock is the square tile edge for blocked transpose;
	// 32×32 float64 tiles touch 32 cache lines each way.
	transposeBlock = 32
)

// sharesData reports whether the backing arrays of x and y overlap.
func sharesData[T Float](x, y []T) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	w := unsafe.Sizeof(x[0])
	xs := uintptr(unsafe.Pointer(&x[0]))
	ys := uintptr(unsafe.Pointer(&y[0]))
	return xs < ys+uintptr(len(y))*w && ys < xs+uintptr(len(x))*w
}

func checkDst[T Float](dst *Mat[T], rows, cols int, a, b *Mat[T], op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s dst is %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
	if sharesData(dst.Data, a.Data) || (b != nil && sharesData(dst.Data, b.Data)) {
		panic(fmt.Sprintf("tensor: %s dst aliases an input", op))
	}
}

// MatMul returns a·b. It panics if the inner dimensions disagree.
func MatMul[T Float](a, b *Mat[T]) *Mat[T] {
	out := NewMat[T](a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a·b without allocating. dst must be
// a.Rows×b.Cols and must not alias a or b.
func MatMulInto[T Float](dst, a, b *Mat[T]) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst(dst, a.Rows, b.Cols, a, b, "MatMulInto")
	if serialRows(a.Rows, a.Rows*a.Cols*b.Cols) {
		matMulRows(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, a.Rows*a.Cols*b.Cols, func(lo, hi int) {
		matMulRows(dst, a, b, lo, hi)
	})
}

// matMulRows computes rows [lo, hi) of dst = a·b on T's leaf.
func matMulRows[T Float](dst, a, b *Mat[T], lo, hi int) {
	if is32[T]() {
		matMulPackedRange(dst.Data, a.Data, a.Cols, 1, b.Data, b.Cols, 1, a.Cols, b.Cols, lo, hi)
		return
	}
	matMulRange(dst, a, b, lo, hi)
}

// matMulRange computes rows [lo, hi) of dst = a·b with k/j tiling and
// a 4-way unrolled axpy inner loop. For each k-tile the four active
// rows of b are reused across the whole j-tile, and the chained
// additions keep the per-element accumulation order identical to the
// naive kernel.
func matMulRange[T Float](dst, a, b *Mat[T], lo, hi int) {
	n := b.Cols
	k := a.Cols
	for i := lo; i < hi; i++ {
		row := dst.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	for jb := 0; jb < n; jb += matMulJC {
		je := jb + matMulJC
		if je > n {
			je = n
		}
		for kb := 0; kb < k; kb += matMulKC {
			ke := kb + matMulKC
			if ke > k {
				ke = k
			}
			for i := lo; i < hi; i++ {
				arow := a.Row(i)
				orow := dst.Row(i)[jb:je]
				kk := kb
				for ; kk+4 <= ke; kk += 4 {
					a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
					if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
						continue
					}
					b0 := b.Data[kk*n+jb : kk*n+je]
					b1 := b.Data[(kk+1)*n+jb:][:len(b0)]
					b2 := b.Data[(kk+2)*n+jb:][:len(b0)]
					b3 := b.Data[(kk+3)*n+jb:][:len(b0)]
					for j, bv := range b0 {
						orow[j] = orow[j] + a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; kk < ke; kk++ {
					av := arow[kk]
					if av == 0 {
						continue
					}
					brow := b.Data[kk*n+jb : kk*n+je]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}

// MatMulT returns a·bᵀ without materializing the transpose.
func MatMulT[T Float](a, b *Mat[T]) *Mat[T] {
	out := NewMat[T](a.Rows, b.Rows)
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes dst = a·bᵀ without allocating or materializing
// the transpose. dst must be a.Rows×b.Rows and must not alias a or b.
func MatMulTInto[T Float](dst, a, b *Mat[T]) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT dim mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst(dst, a.Rows, b.Rows, a, b, "MatMulTInto")
	if serialRows(a.Rows, a.Rows*a.Cols*b.Rows) {
		matMulTRows(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, a.Rows*a.Cols*b.Rows, func(lo, hi int) {
		matMulTRows(dst, a, b, lo, hi)
	})
}

// matMulTRows computes rows [lo, hi) of dst = a·bᵀ on T's leaf. The
// packed driver's strided B walk absorbs the transpose: B panel rows
// are gathered column-major from b.
func matMulTRows[T Float](dst, a, b *Mat[T], lo, hi int) {
	if is32[T]() {
		matMulPackedRange(dst.Data, a.Data, a.Cols, 1, b.Data, 1, a.Cols, a.Cols, b.Rows, lo, hi)
		return
	}
	matMulTRange(dst, a, b, lo, hi)
}

// matMulTRange computes rows [lo, hi) of dst = a·bᵀ. Four output
// columns (rows of b) are produced per pass over a row of a, each with
// its own accumulator, so the row of a is loaded once per four dot
// products and the accumulations stay independent and k-ordered.
func matMulTRange[T Float](dst, a, b *Mat[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Row(j)[:len(arow)]
			b1 := b.Row(j + 1)[:len(arow)]
			b2 := b.Row(j + 2)[:len(arow)]
			b3 := b.Row(j + 3)[:len(arow)]
			var s0, s1, s2, s3 T
			for kk, av := range arow {
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Row(j)[:len(arow)]
			var s T
			for kk, av := range arow {
				s += av * brow[kk]
			}
			orow[j] = s
		}
	}
}

// TMatMul returns aᵀ·b without materializing the transpose.
func TMatMul[T Float](a, b *Mat[T]) *Mat[T] {
	out := NewMat[T](a.Cols, b.Cols)
	TMatMulInto(out, a, b)
	return out
}

// A float64 aᵀ·b runs on the packed register-tiled driver when the
// output is wide enough to amortize panel packing. Narrow outputs
// (Conv1D weight gradients: n = filters, often ≤ 64) keep the
// outer-product kernel, whose zero skip exploits padded im2col patches.
const (
	tMatMulPackMinN = 64
	tMatMulPackMinK = 8
)

// TMatMulInto computes dst = aᵀ·b without allocating or materializing
// the transpose. dst must be a.Cols×b.Cols and must not alias a or b.
// Work is split over output rows (a's columns) to keep writes disjoint.
func TMatMulInto[T Float](dst, a, b *Mat[T]) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul dim mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst(dst, a.Cols, b.Cols, a, b, "TMatMulInto")
	if serialRows(a.Cols, a.Rows*a.Cols*b.Cols) {
		tMatMulRows(dst, a, b, 0, a.Cols)
		return
	}
	parallelRows(a.Cols, a.Rows*a.Cols*b.Cols, func(lo, hi int) {
		tMatMulRows(dst, a, b, lo, hi)
	})
}

// tMatMulRows computes rows [lo, hi) of dst = aᵀ·b on T's leaf. On the
// packed driver the packing stage walks a column-major into the same
// k-major panels a·b packs its A strips into, so the transpose costs
// one extra copy of each panel instead of a strided inner loop.
func tMatMulRows[T Float](dst, a, b *Mat[T], lo, hi int) {
	if is32[T]() || (b.Cols >= tMatMulPackMinN && a.Rows >= tMatMulPackMinK) {
		matMulPackedRange(dst.Data, a.Data, 1, a.Cols, b.Data, b.Cols, 1, a.Rows, b.Cols, lo, hi)
		return
	}
	tMatMulRange(dst, a, b, lo, hi)
}

// tMatMulRange computes rows [lo, hi) of dst = aᵀ·b, tiled over both
// i and j so the accumulated block of dst stays cache-resident across
// the k sweep (dst can be far larger than cache — e.g. a 4096×1024
// weight gradient). The zero skip on a's entries makes padded im2col
// patch matrices (Conv1D "same" padding) cheaper without changing
// finite results.
func tMatMulRange[T Float](dst, a, b *Mat[T], lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		row := dst.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	for ib := lo; ib < hi; ib += tMatMulIC {
		ie := ib + tMatMulIC
		if ie > hi {
			ie = hi
		}
		for jb := 0; jb < n; jb += matMulJC {
			je := jb + matMulJC
			if je > n {
				je = n
			}
			for k := 0; k < a.Rows; k++ {
				arow := a.Row(k)
				brow := b.Data[k*n+jb : k*n+je]
				for i := ib; i < ie; i++ {
					av := arow[i]
					if av == 0 {
						continue
					}
					orow := dst.Row(i)[jb:je][:len(brow)]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}

// Transpose returns a new matrix that is mᵀ.
func (m *Mat[T]) Transpose() *Mat[T] {
	out := NewMat[T](m.Cols, m.Rows)
	TransposeInto(out, m)
	return out
}

// TransposeInto computes dst = mᵀ without allocating. dst must be
// m.Cols×m.Rows and must not alias m. The copy runs over square tiles
// (and in parallel for large matrices) so both the read and the write
// side stay within a few cache lines per tile.
func TransposeInto[T Float](dst, m *Mat[T]) {
	checkDst(dst, m.Cols, m.Rows, m, nil, "TransposeInto")
	if serialRows(m.Cols, m.Rows*m.Cols) {
		transposeRange(dst, m, 0, m.Cols)
		return
	}
	parallelRows(m.Cols, m.Rows*m.Cols, func(lo, hi int) {
		transposeRange(dst, m, lo, hi)
	})
}

// transposeRange writes output rows [lo, hi) of dst = mᵀ in square
// tiles.
func transposeRange[T Float](dst, m *Mat[T], lo, hi int) {
	for ib := lo; ib < hi; ib += transposeBlock {
		ie := ib + transposeBlock
		if ie > hi {
			ie = hi
		}
		for jb := 0; jb < m.Rows; jb += transposeBlock {
			je := jb + transposeBlock
			if je > m.Rows {
				je = m.Rows
			}
			for j := jb; j < je; j++ {
				row := m.Row(j)
				for i := ib; i < ie; i++ {
					dst.Data[i*m.Rows+j] = row[i]
				}
			}
		}
	}
}

// Float32 names of the kernels, for callers that spell the precision.

// MatMul32 returns a·b.
func MatMul32(a, b *Matrix32) *Matrix32 { return MatMul(a, b) }

// MatMulInto32 computes dst = a·b.
func MatMulInto32(dst, a, b *Matrix32) { MatMulInto(dst, a, b) }

// MatMulT32 returns a·bᵀ.
func MatMulT32(a, b *Matrix32) *Matrix32 { return MatMulT(a, b) }

// MatMulTInto32 computes dst = a·bᵀ.
func MatMulTInto32(dst, a, b *Matrix32) { MatMulTInto(dst, a, b) }

// TMatMul32 returns aᵀ·b.
func TMatMul32(a, b *Matrix32) *Matrix32 { return TMatMul(a, b) }

// TMatMulInto32 computes dst = aᵀ·b.
func TMatMulInto32(dst, a, b *Matrix32) { TMatMulInto(dst, a, b) }

// TransposeInto32 computes dst = mᵀ.
func TransposeInto32(dst, m *Matrix32) { TransposeInto(dst, m) }
