package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Range != 4 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
}

func TestMinMaxF32(t *testing.T) {
	mn, mx := MinMaxF32([]float32{3, -1, 2})
	if mn != -1 || mx != 3 {
		t.Fatalf("got %v %v", mn, mx)
	}
	mn, mx = MinMaxF32(nil)
	if mn != 0 || mx != 0 {
		t.Fatalf("empty: got %v %v", mn, mx)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{0, 0.1, 0.5, 0.9, 1.0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 3 { // bins are half-open: 0.5 falls in bin 1

		t.Fatalf("counts %v", h.Counts)
	}
	// Densities integrate to 1.
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	var integral float64
	for i := range h.Counts {
		integral += h.Density(i) * w
	}
	if math.Abs(integral-1) > 1e-12 {
		t.Fatalf("density integral = %v", integral)
	}
	if _, err := NewHistogram(nil, 0); err == nil {
		t.Fatal("expected error for zero bins")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h, err := NewHistogram([]float64{2, 2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("degenerate histogram lost samples: %v", h.Counts)
	}
}

func TestFitLaplaceRecoversParameters(t *testing.T) {
	rng := NewRNG(42)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = SampleLaplace(rng, 0.3, 2.0)
	}
	fit := FitLaplace(xs)
	if math.Abs(fit.Mu-0.3) > 0.05 {
		t.Fatalf("mu = %v", fit.Mu)
	}
	if math.Abs(fit.B-2.0) > 0.05 {
		t.Fatalf("b = %v", fit.B)
	}
}

func TestFitGaussianRecoversParameters(t *testing.T) {
	rng := NewRNG(7)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*1.5 + 4
	}
	fit := FitGaussian(xs)
	if math.Abs(fit.Mu-4) > 0.05 || math.Abs(fit.Sigma-1.5) > 0.05 {
		t.Fatalf("fit %+v", fit)
	}
}

func TestKSDiscriminatesLaplaceFromGaussian(t *testing.T) {
	// Laplace-distributed data should be closer (in KS distance) to its
	// fitted Laplace than to its fitted Gaussian. This is exactly the
	// Fig. 10 argument of the paper.
	rng := NewRNG(11)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = SampleLaplace(rng, 0, 0.02)
	}
	lap := FitLaplace(xs)
	gau := FitGaussian(xs)
	dLap := KSStatistic(xs, lap.CDF)
	dGau := KSStatistic(xs, gau.CDF)
	if dLap >= dGau {
		t.Fatalf("KS(laplace)=%v should be < KS(gaussian)=%v", dLap, dGau)
	}
	if dLap > 0.02 {
		t.Fatalf("KS(laplace)=%v too large for a true Laplace sample", dLap)
	}
}

func TestRoughnessOrdersSpikyAboveSmooth(t *testing.T) {
	n := 2048
	smooth := make([]float64, n)
	for i := range smooth {
		smooth[i] = math.Sin(2 * math.Pi * float64(i) / float64(n))
	}
	rng := NewRNG(3)
	spiky := make([]float64, n)
	for i := range spiky {
		spiky[i] = rng.NormFloat64()
	}
	rs, rp := Roughness(smooth), Roughness(spiky)
	if rs >= rp {
		t.Fatalf("smooth roughness %v should be < spiky %v", rs, rp)
	}
	if Roughness(nil) != 0 || Roughness([]float64{1}) != 0 {
		t.Fatal("degenerate roughness should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Fatalf("q.25 = %v", q)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestQuickCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		lap := FitLaplace(xs)
		gau := FitGaussian(xs)
		prev := -1.0
		for x := -5.0; x <= 5.0; x += 0.25 {
			c := lap.CDF(x)
			if c < prev-1e-12 || c < 0 || c > 1 {
				return false
			}
			prev = c
		}
		prev = -1.0
		for x := -5.0; x <= 5.0; x += 0.25 {
			c := gau.CDF(x)
			if c < prev-1e-12 || c < 0 || c > 1 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
