package sz3

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"fedsz/internal/lossy"
	"fedsz/internal/lossy/lossytest"
	"fedsz/internal/quant"
	"fedsz/internal/sz2"
)

func TestConformance(t *testing.T) {
	lossytest.Run(t, New())
}

func TestConformanceLinearOnly(t *testing.T) {
	lossytest.Run(t, New(WithLinearOnly()))
}

func TestConformanceNoLossless(t *testing.T) {
	lossytest.Run(t, New(WithLosslessStage(nil)))
}

func TestName(t *testing.T) {
	if New().Name() != "sz3" {
		t.Fatal("name")
	}
}

func TestVisitCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7, 8, 9, 100, 1023, 1024, 1025} {
		seen := make([]int, n)
		visit(n, func(i, stride int, cubicOK bool) {
			seen[i]++
		})
		if seen[0] != 0 {
			t.Fatalf("n=%d: index 0 must not be visited", n)
		}
		for i := 1; i < n; i++ {
			if seen[i] != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, seen[i])
			}
		}
	}
}

func TestVisitStrideDecodesBeforeUse(t *testing.T) {
	// Every prediction must depend only on already-visited indices.
	n := 513
	done := make([]bool, n)
	done[0] = true
	visit(n, func(i, stride int, cubicOK bool) {
		deps := []int{i - stride}
		if i+stride < n {
			deps = append(deps, i+stride)
		}
		if cubicOK {
			deps = append(deps, i-3*stride, i+3*stride)
		}
		for _, d := range deps {
			if d < 0 || d >= n {
				t.Fatalf("dep %d out of range for i=%d stride=%d", d, i, stride)
			}
			if !done[d] {
				t.Fatalf("index %d uses unvisited dependency %d (stride %d)", i, d, stride)
			}
		}
		done[i] = true
	})
}

func TestCubicBeatsLinearOnSmoothData(t *testing.T) {
	data := make([]float32, 16384)
	for i := range data {
		x := float64(i) / 1024
		data[i] = float32(math.Sin(2*math.Pi*x) + 0.2*math.Cos(9*x))
	}
	p := lossy.RelBound(1e-3)
	cubic, err := New().Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	linear, err := New(WithLinearOnly()).Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cubic) > len(linear) {
		t.Fatalf("cubic (%d) should beat linear (%d) on smooth data", len(cubic), len(linear))
	}
}

func TestSZ3NearSZ2OnSpikyData(t *testing.T) {
	// Paper §V-D3: SZ2 and SZ3 exhibit similar ratios on spiky FL data.
	data := lossytest.Corpus(11)["spiky"]
	p := lossy.RelBound(1e-2)
	cr3 := lossytest.CompressionRatio(t, New(), data, p)
	cr2 := lossytest.CompressionRatio(t, sz2.New(), data, p)
	ratio := cr3 / cr2
	if ratio < 0.6 || ratio > 1.7 {
		t.Fatalf("SZ3 CR %.2f should be comparable to SZ2 CR %.2f", cr3, cr2)
	}
}

func TestSZ3BeatsSZ2OnSmoothHighBound(t *testing.T) {
	// The interpolation predictor gives SZ3 an edge on smooth data at
	// high error bounds (paper §II-A).
	data := make([]float32, 32768)
	for i := range data {
		x := float64(i) / 2048
		data[i] = float32(math.Sin(2 * math.Pi * x))
	}
	p := lossy.RelBound(1e-1)
	b3, err := New().Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := sz2.New().Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(b3) > len(b2) {
		t.Fatalf("SZ3 (%d bytes) should beat SZ2 (%d bytes) on smooth data at 1e-1",
			len(b3), len(b2))
	}
}

func BenchmarkCompress(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 1<<20)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 0.05)
	}
	c := New()
	b.SetBytes(int64(len(data) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(data, lossy.RelBound(1e-2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 1<<20)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 0.05)
	}
	c := New()
	buf, err := c.Compress(data, lossy.RelBound(1e-2))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestForgedRadiusRejected: an unwrapped section whose radius lies
// outside [1, quant.MaxRadius] (2^63 wraps int) or below its codes is
// rejected, where it used to decode into values far off the bound.
func TestForgedRadiusRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := make([]float32, 2000)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	c := New(WithLosslessStage(nil))
	buf, err := c.Compress(data, lossy.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(buf); err != nil {
		t.Fatal(err)
	}
	_, _, rest, err := lossy.ReadHeader(magic, buf)
	if err != nil || rest[0] != 0 {
		t.Fatalf("not an unwrapped section: %v", err)
	}
	head := buf[:len(buf)-len(rest)+1]
	_, n := binary.Uvarint(rest[1:])
	tail := rest[1+n:]
	for _, r := range []uint64{0, 100, quant.MaxRadius + 1, 1 << 40, 1 << 63} {
		forged := append(binary.AppendUvarint(bytes.Clone(head), r), tail...)
		if _, err := c.Decompress(forged); !errors.Is(err, lossy.ErrCorrupt) {
			t.Errorf("radius %d: decoded with error %v, want lossy.ErrCorrupt", r, err)
		}
	}
}
