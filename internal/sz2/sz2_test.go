package sz2

import (
	"math"
	"math/rand"
	"testing"

	"fedsz/internal/lossy"
	"fedsz/internal/lossy/lossytest"
)

// TestConformance runs the conformance suite on the path Compress
// takes by default, the AVX2 kernels where the CPU has them, and again
// with them off.
func TestConformance(t *testing.T) {
	if !haveAVX2 {
		t.Log("the CPU lacks AVX2: both runs take the scalar loops")
	}
	lossytest.Run(t, New())
	t.Run("scalar", func(t *testing.T) {
		setPath(t, false)
		lossytest.Run(t, New())
	})
}

func TestConformanceNoLosslessStage(t *testing.T) {
	lossytest.Run(t, New(WithLosslessStage(nil)))
}

func TestConformanceLorenzoOnly(t *testing.T) {
	lossytest.Run(t, New(WithoutRegression()))
}

func TestName(t *testing.T) {
	if New().Name() != "sz2" {
		t.Fatal("name")
	}
}

func TestCompressionRatioOnSpikyData(t *testing.T) {
	data := lossytest.Corpus(7)["spiky"]
	cr := lossytest.CompressionRatio(t, New(), data, lossy.RelBound(1e-2))
	if cr < 4 {
		t.Fatalf("SZ2 CR on spiky data at 1e-2 = %.2f, expected > 4", cr)
	}
	cr4 := lossytest.CompressionRatio(t, New(), data, lossy.RelBound(1e-4))
	if cr4 >= cr {
		t.Fatalf("CR should shrink with tighter bounds: %.2f at 1e-4 vs %.2f at 1e-2", cr4, cr)
	}
}

func TestRegressionHelpsOnLinearData(t *testing.T) {
	// Piecewise-linear data is where the regression predictor shines.
	data := make([]float32, 8192)
	for i := range data {
		seg := i / 256
		slope := float32(seg%5) - 2
		data[i] = float32(slope*float32(i%256)/256) + float32(seg)
	}
	p := lossy.RelBound(1e-3)
	hybrid, err := New().Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	lorenzo, err := New(WithoutRegression()).Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(hybrid) > len(lorenzo) {
		t.Fatalf("hybrid (%d bytes) should beat lorenzo-only (%d bytes) on linear data",
			len(hybrid), len(lorenzo))
	}
}

func TestOutlierPath(t *testing.T) {
	// A tiny absolute bound with huge jumps forces the outlier path.
	rng := rand.New(rand.NewSource(2))
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 1e9)
	}
	p := lossy.AbsBound(1e-12)
	buf, err := New().Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New().Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != got[i] {
			t.Fatalf("outlier round-trip should be exact at %d: %v vs %v", i, data[i], got[i])
		}
	}
}

func TestFitLine(t *testing.T) {
	block := make([]float64, 64)
	for i := range block {
		block[i] = 3 + float64(0.5*float64(i))
	}
	a0, a1, lorenzo := fitLine(block, 1)
	if math.Abs(a0-3) > 1e-6 || math.Abs(a1-0.5) > 1e-6 {
		t.Fatalf("fit = (%v, %v)", a0, a1)
	}
	// |3-1| from the previous reconstruction, then 63 steps of 0.5.
	if want := 2 + 63*0.5; lorenzo != want {
		t.Fatalf("lorenzo sum = %v, want %v", lorenzo, want)
	}
	a0, a1, lorenzo = fitLine([]float64{7}, 4)
	if a0 != 7 || a1 != 0 || lorenzo != 3 {
		t.Fatalf("single-point fit = (%v, %v, %v)", a0, a1, lorenzo)
	}
	a0, a1, lorenzo = fitLine(nil, 4)
	if a0 != 0 || a1 != 0 || lorenzo != 0 {
		t.Fatalf("empty fit = (%v, %v, %v)", a0, a1, lorenzo)
	}
}

func TestPackModes(t *testing.T) {
	modes := []byte{0, 1, 0, 1, 1, 0, 1}
	packed := appendPackedModes(nil, modes)
	if len(packed) != 2 {
		t.Fatalf("packed %d bytes, want 2", len(packed))
	}
	for i := range modes {
		got := packed[i/4] >> uint((i%4)*2) & 3
		if got != modes[i] {
			t.Fatalf("mode %d: got %d want %d", i, got, modes[i])
		}
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

// TestPSNRTracksBound: each 10× tightening of the REL bound should buy
// roughly 20 dB of PSNR once the error is quantization-dominated. (At
// very loose bounds — e.g. 1e-1 on spiky data — most residuals are the
// prediction error itself, so PSNR saturates; the sweep therefore
// starts at 1e-2.)
func TestPSNRTracksBound(t *testing.T) {
	data := lossytest.Corpus(3)["spiky"]
	c := New()
	var prev float64
	for i, bound := range []float64{1e-2, 1e-3, 1e-4} {
		buf, err := c.Compress(data, lossy.RelBound(bound))
		if err != nil {
			t.Fatal(err)
		}
		recon, err := c.Decompress(buf)
		if err != nil {
			t.Fatal(err)
		}
		m := lossy.Evaluate(data, recon)
		if i > 0 {
			gain := m.PSNR - prev
			if gain < 12 || gain > 28 {
				t.Fatalf("PSNR gain per decade = %.1f dB, want ≈20", gain)
			}
		}
		prev = m.PSNR
	}
}
