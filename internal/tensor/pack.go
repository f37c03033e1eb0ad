package tensor

import "unsafe"

// This file is the packed matmul driver shared by both precisions: a
// cache-blocked kernel over T that packs A and B panels into contiguous
// scratch buffers and drives them with a register-tiled micro-kernel.
//
// Layout. The output is computed in jb×kb blocks (packNC × packKC);
// for each block the kw rows of B are copied into a contiguous kw×jw
// panel (bPack), and each 4-row strip of A is packed k-major into an
// interleaved panel (aPack[t*4+r] = A[i+r, kb+t]) so the micro-kernel
// reads both operands as unit-stride streams regardless of either
// operand's original orientation.
//
// Micro-kernel. Each call produces a 4×jw strip of the output: the
// k-loop is unrolled 4-way, the four active B rows are register-tiled
// against four A scalars per row (16 multiply-adds per B load quad),
// and each output element is updated with explicit left-associated
// additions in k-increasing order — bit-exact against the naive
// triple loop, like every kernel in this package.
//
// Entries of A and B are addressed as data[i*rowStride + k*colStride],
// so (cols, 1) walks a row-major operand and (1, cols) walks its
// transpose without materializing it.

const (
	// packMR is the micro-kernel's output strip height.
	packMR = 4
	// packKC and packNC are the k/j block edges; one packed B panel
	// spans packKC·packNC scalars (1 MiB f64, 512 KiB f32), sized to
	// sit in a per-core L2/LLC slice while output strips stream by.
	packKC = 256
	packNC = 512
)

// packBuf is one worker's packing scratch; pooled so warmed kernels
// allocate nothing.
type packBuf[T Float] struct {
	a []T // packMR×packKC interleaved A strip
	b []T // packKC×packNC contiguous B panel
}

// matMulPackedRange computes rows [lo, hi) of the n-wide output
// dst = A·B with inner dimension k. Both operands are addressed through
// (row, col) strides: (ld, 1) walks a row-major operand, (1, ld) walks
// its transpose, which is how a·b, a·bᵀ and aᵀ·b share this one driver.
// Full 4-row float32 strips run on the AVX tile when the host has one;
// it computes bitwise what micro4x does (one multiply and one
// left-associated add per k term, lanes independent), so the route
// taken never changes the output.
func matMulPackedRange[T Float](dst []T, a []T, aRow, aCol int, b []T, bRow, bCol int, k, n, lo, hi int) {
	pool := &scratchFor[T]().pack
	pb, ok := pool.Get().(*packBuf[T])
	if !ok {
		pb = &packBuf[T]{a: make([]T, packMR*packKC), b: make([]T, packKC*packNC)}
	}
	aPack, bPack := pb.a, pb.b
	for i := lo; i < hi; i++ {
		row := dst[i*n : i*n+n]
		for j := range row {
			row[j] = 0
		}
	}
	for jb := 0; jb < n; jb += packNC {
		je := jb + packNC
		if je > n {
			je = n
		}
		jw := je - jb
		for kb := 0; kb < k; kb += packKC {
			ke := kb + packKC
			if ke > k {
				ke = k
			}
			kw := ke - kb
			// Pack the B block: kw contiguous jw-wide rows.
			for t := 0; t < kw; t++ {
				if bCol == 1 {
					src := (kb+t)*bRow + jb
					copy(bPack[t*jw:t*jw+jw], b[src:src+jw])
				} else {
					base := (kb + t) * bRow
					dstRow := bPack[t*jw : t*jw+jw]
					for j := range dstRow {
						dstRow[j] = b[base+(jb+j)*bCol]
					}
				}
			}
			for i := lo; i < hi; i += packMR {
				mr := hi - i
				if mr > packMR {
					mr = packMR
				}
				// Pack the A strip k-major: aPack[t*4+r] = A[i+r, kb+t].
				for r := 0; r < mr; r++ {
					base := (i + r) * aRow
					for t := 0; t < kw; t++ {
						aPack[t*packMR+r] = a[base+(kb+t)*aCol]
					}
				}
				if mr < packMR {
					for r := 0; r < mr; r++ {
						micro1x(dst[(i+r)*n+jb:][:jw], aPack, r, bPack, kw, jw)
					}
					continue
				}
				o0 := dst[i*n+jb:][:jw]
				o1 := dst[(i+1)*n+jb:][:jw]
				o2 := dst[(i+2)*n+jb:][:jw]
				o3 := dst[(i+3)*n+jb:][:jw]
				// jv leading columns go to the 16-wide AVX tile, the
				// ragged rest (everything, without AVX) to micro4x.
				jv := 0
				if is32[T]() && useAVX && jw >= 16 {
					jv = jw &^ 15
					avx4x16(asF32(&o0[0]), asF32(&o1[0]), asF32(&o2[0]), asF32(&o3[0]), asF32(&aPack[0]), asF32(&bPack[0]), kw, jv, jw)
				}
				if jv < jw {
					micro4x(o0[jv:], o1[jv:], o2[jv:], o3[jv:], aPack, bPack[jv:], kw, jw)
				}
			}
		}
	}
	pool.Put(pb)
}

// asF32 reinterprets p for the AVX tile; T is float32 at every call.
func asF32[T Float](p *T) *float32 { return (*float32)(unsafe.Pointer(p)) }

// micro4x accumulates a packed kw-deep panel into four output rows of
// equal length; row t of the panel starts at bPack[t*ldb]. The k-loop
// is unrolled 4-way; per iteration the four B rows are loaded once and
// reused across all four output rows (16 multiply-adds per 4 B loads).
// Additions are explicit and left-associated so each output element
// accumulates in exactly naive k-order.
func micro4x[T Float](o0, o1, o2, o3 []T, aPack []T, bPack []T, kw, ldb int) {
	jw := len(o0)
	kk := 0
	for ; kk+4 <= kw; kk += 4 {
		ap := aPack[kk*packMR : kk*packMR+16]
		a00, a10, a20, a30 := ap[0], ap[1], ap[2], ap[3]
		a01, a11, a21, a31 := ap[4], ap[5], ap[6], ap[7]
		a02, a12, a22, a32 := ap[8], ap[9], ap[10], ap[11]
		a03, a13, a23, a33 := ap[12], ap[13], ap[14], ap[15]
		b0 := bPack[kk*ldb:][:jw]
		b1 := bPack[(kk+1)*ldb:][:jw]
		b2 := bPack[(kk+2)*ldb:][:jw]
		b3 := bPack[(kk+3)*ldb:][:jw]
		for j, bv0 := range b0 {
			bv1, bv2, bv3 := b1[j], b2[j], b3[j]
			o0[j] = o0[j] + a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
			o1[j] = o1[j] + a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
			o2[j] = o2[j] + a20*bv0 + a21*bv1 + a22*bv2 + a23*bv3
			o3[j] = o3[j] + a30*bv0 + a31*bv1 + a32*bv2 + a33*bv3
		}
	}
	for ; kk < kw; kk++ {
		ap := aPack[kk*packMR : kk*packMR+packMR]
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		brow := bPack[kk*ldb:][:jw]
		for j, bv := range brow {
			o0[j] = o0[j] + a0*bv
			o1[j] = o1[j] + a1*bv
			o2[j] = o2[j] + a2*bv
			o3[j] = o3[j] + a3*bv
		}
	}
}

// micro1x is the ragged-strip variant of micro4x: one output row, lane
// r of the packed A strip.
func micro1x[T Float](o []T, aPack []T, r int, bPack []T, kw, jw int) {
	kk := 0
	for ; kk+4 <= kw; kk += 4 {
		a0 := aPack[kk*packMR+r]
		a1 := aPack[(kk+1)*packMR+r]
		a2 := aPack[(kk+2)*packMR+r]
		a3 := aPack[(kk+3)*packMR+r]
		b0 := bPack[kk*jw : kk*jw+jw]
		b1 := bPack[(kk+1)*jw:][:jw]
		b2 := bPack[(kk+2)*jw:][:jw]
		b3 := bPack[(kk+3)*jw:][:jw]
		for j, bv0 := range b0 {
			o[j] = o[j] + a0*bv0 + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; kk < kw; kk++ {
		av := aPack[kk*packMR+r]
		if av == 0 {
			continue
		}
		brow := bPack[kk*jw : kk*jw+jw]
		for j, bv := range brow {
			o[j] = o[j] + av*bv
		}
	}
}
