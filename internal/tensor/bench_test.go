package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks at the shapes that dominate the CANDLE
// training hot path, plus the square 1024³ case as a shape-neutral
// reference. Shapes:
//
//   - NT3 dense head: (batch·outSteps)×(kernel·inCh) patches by Conv1D
//     im2col, then B×flatWidth · flatWidth×dense.
//   - P1B1 autoencoder: B×features · features×hidden with wide
//     features (the paper's P1B1 has 60483 input features; the scaled
//     benches here use the same aspect ratio at tractable sizes).
func benchMatMulInto(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, m, k, 1)
	y := RandNormal(rng, k, n, 1)
	out := New(m, n)
	b.SetBytes(int64(m) * int64(k) * int64(n) * 2 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y)
	}
}

func BenchmarkMatMul(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
	}{
		{"256x256x256", 256, 256, 256},
		{"512x512x512", 512, 512, 512},
		{"1024x1024x1024", 1024, 1024, 1024},
		{"NT3conv_2660x208", 2660, 208, 16}, // 20×133 patch rows · (13 kernel ·16 ch) · filters
		{"NT3dense_20x1064", 20, 1064, 128}, // flattened conv output into dense 128
		{"P1B1enc_100x4096", 100, 4096, 1024},
	} {
		b.Run(s.name, func(b *testing.B) { benchMatMulInto(b, s.m, s.k, s.n) })
	}
}

// benchMatMulInto32 mirrors benchMatMulInto on the f32 packed kernel;
// SetBytes halves per element, so B/s columns are comparable across
// precisions while ns/op shows the raw step-time win.
func benchMatMulInto32(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal32(rng, m, k, 1)
	y := RandNormal32(rng, k, n, 1)
	out := New32(m, n)
	b.SetBytes(int64(m) * int64(k) * int64(n) * 2 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto32(out, x, y)
	}
}

func BenchmarkMatMul32(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
	}{
		{"256x256x256", 256, 256, 256},
		{"512x512x512", 512, 512, 512},
		{"1024x1024x1024", 1024, 1024, 1024},
		{"NT3conv_2660x208", 2660, 208, 16},
		{"NT3dense_20x1064", 20, 1064, 128},
		{"P1B1enc_100x4096", 100, 4096, 1024},
	} {
		b.Run(s.name, func(b *testing.B) { benchMatMulInto32(b, s.m, s.k, s.n) })
	}
}

func BenchmarkMatMulT32(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := RandNormal32(rng, 100, 1024, 1)
	y := RandNormal32(rng, 4096, 1024, 1)
	out := New32(100, 4096)
	b.SetBytes(100 * 1024 * 4096 * 2 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTInto32(out, x, y)
	}
}

func BenchmarkTMatMul32(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := RandNormal32(rng, 100, 4096, 1)
	y := RandNormal32(rng, 100, 1024, 1)
	out := New32(4096, 1024)
	b.SetBytes(100 * 4096 * 1024 * 2 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMatMulInto32(out, x, y)
	}
}

func BenchmarkMatMulT(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := RandNormal(rng, 100, 1024, 1)
	y := RandNormal(rng, 4096, 1024, 1)
	out := New(100, 4096)
	b.SetBytes(100 * 1024 * 4096 * 2 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTInto(out, x, y)
	}
}

func BenchmarkTMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := RandNormal(rng, 100, 4096, 1)
	y := RandNormal(rng, 100, 1024, 1)
	out := New(4096, 1024)
	b.SetBytes(100 * 4096 * 1024 * 2 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMatMulInto(out, x, y)
	}
}

func BenchmarkTranspose1024(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := RandNormal(rng, 1024, 1024, 1)
	out := New(1024, 1024)
	b.SetBytes(1024 * 1024 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TransposeInto(out, x)
	}
}

func BenchmarkColSums(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := RandNormal(rng, 1024, 1024, 1)
	out := make([]float64, 1024)
	b.SetBytes(1024 * 1024 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.ColSumsInto(out)
	}
}

// BenchmarkMatMulWorkerBudgets shows how the shared budget trades
// single-kernel latency for multi-rank throughput.
func BenchmarkMatMulWorkerBudgets(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := RandNormal(rng, 512, 512, 1)
	y := RandNormal(rng, 512, 512, 1)
	out := New(512, 512)
	prev := Workers()
	defer SetWorkers(prev)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers_%d", w), func(b *testing.B) {
			SetWorkers(w)
			b.SetBytes(512 * 512 * 512 * 2 * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y)
			}
		})
	}
}
