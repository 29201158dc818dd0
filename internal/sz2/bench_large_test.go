// Large-scale (ResNet50-tensor-sized) benchmarks pinning the numbers
// quoted in the README Performance section.
package sz2

import (
	"math/rand"
	"testing"

	"fedsz/internal/lossy"
)

func benchData(n int) []float32 {
	rng := rand.New(rand.NewSource(3))
	d := make([]float32, n)
	for i := range d {
		d[i] = float32(rng.NormFloat64()) * 0.05
	}
	return d
}

func BenchmarkCompressResNetScale(b *testing.B) {
	data := benchData(1 << 21)
	c := New()
	b.SetBytes(int64(len(data) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(data, lossy.RelBound(1e-2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressResNetScale(b *testing.B) {
	data := benchData(1 << 21)
	c := New()
	buf, err := c.Compress(data, lossy.RelBound(1e-2))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(buf); err != nil {
			b.Fatal(err)
		}
	}
}
