package tensor

import (
	"math/bits"
	"sync"
)

// This file implements the scratch arena: a sync.Pool-backed free list
// of matrices bucketed by power-of-two capacity. Training steps borrow
// temporaries with Get and return them with Put, so a warmed steady
// state does near-zero heap allocation regardless of how many batches
// run.

// scratch is the pooled scratch of one element type.
type scratch struct {
	// arena[c] holds *Mat[T] values whose Data has cap exactly 1<<c.
	// 48 classes cover every slice Go can address.
	arena [48]sync.Pool
	pack  sync.Pool // *packBuf[T], the packed driver's panels (pack.go)
}

var scratch64, scratch32 scratch

func scratchFor[T Float]() *scratch {
	if is32[T]() {
		return &scratch32
	}
	return &scratch64
}

// sizeClass returns the bucket whose capacity 1<<c is the smallest
// power of two ≥ n. n must be > 0.
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// GetMat returns a zeroed rows×cols matrix from the arena, allocating
// only when no pooled matrix of a suitable class exists. Pair it with
// PutMat when the scratch value is dead; matrices from GetMat are
// otherwise indistinguishable from NewMat's.
func GetMat[T Float](rows, cols int) *Mat[T] {
	n := rows * cols
	if n <= 0 {
		return NewMat[T](rows, cols) // validates negative dims, handles empty
	}
	c := sizeClass(n)
	m, ok := scratchFor[T]().arena[c].Get().(*Mat[T])
	if !ok {
		return &Mat[T]{Rows: rows, Cols: cols, Data: make([]T, n, 1<<c)}
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// Get is GetMat for float64.
func Get(rows, cols int) *Matrix { return GetMat[float64](rows, cols) }

// Get32 is GetMat for float32.
func Get32(rows, cols int) *Matrix32 { return GetMat[float32](rows, cols) }

// PutMat returns a matrix obtained from GetMat (or any matrix the
// caller no longer needs) to the arena. The matrix must not be used
// after PutMat. Matrices whose capacity is not a power of two — e.g.
// views from RowSlice or FromSlice wrappers — are dropped rather than
// pooled, so PutMat never corrupts a bucket's size invariant.
func PutMat[T Float](m *Mat[T]) {
	if m == nil || cap(m.Data) == 0 {
		return
	}
	c := sizeClass(cap(m.Data))
	if cap(m.Data) != 1<<c {
		return
	}
	m.Data = m.Data[:cap(m.Data)]
	scratchFor[T]().arena[c].Put(m)
}

// Put is PutMat for float64.
func Put(m *Matrix) { PutMat(m) }

// Put32 is PutMat for float32.
func Put32(m *Matrix32) { PutMat(m) }
