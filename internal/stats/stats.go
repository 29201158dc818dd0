// Package stats provides the small statistics toolkit used across the
// repository: deterministic random number generation, sampling from the
// distributions that model-weight generation needs, histograms, summary
// statistics, maximum-likelihood fits and Kolmogorov–Smirnov distances
// for the differential-privacy analysis (paper Fig. 10), and the
// roughness metric that backs the parameter-vs-scientific-data
// characterization (paper Fig. 2).
package stats

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// NewRNG returns a deterministic PRNG for the given seed. All
// stochastic components in this repository derive their randomness from
// explicit seeds so experiments are reproducible.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SampleLaplace draws one sample from Laplace(mu, b).
func SampleLaplace(rng *rand.Rand, mu, b float64) float64 {
	u := float64(rng.Float64()) - 0.5
	if u >= 0 {
		return mu - float64(b*math.Log(1-float64(2*u)))
	}
	return mu + float64(b*math.Log(1+float64(2*u)))
}

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N       int
	Min     float64
	Max     float64
	Mean    float64
	Std     float64
	AbsMean float64 // mean of |x|
	Range   float64 // Max - Min
}

// Summarize computes descriptive statistics over xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum, sumAbs float64
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
		sumAbs += math.Abs(x)
	}
	s.Mean = sum / float64(len(xs))
	s.AbsMean = sumAbs / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += float64(d * d)
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Range = s.Max - s.Min
	return s
}

// SummarizeF32 is Summarize for float32 slices.
func SummarizeF32(xs []float32) Summary {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return Summarize(f)
}

// MinMaxF32 returns the minimum and maximum of xs in a single pass,
// skipping NaNs wherever they sit. It returns (0, 0) for an empty slice
// and (NaN, NaN) for an all-NaN one. Of equal zeros it returns the
// first: the loop below replaces a value only by a smaller (larger) one.
//
// Where useAVX2 holds, the multiple-of-32 body after the first non-NaN
// value runs through an eight-lane kernel that returns the same values;
// a zero it returns may carry the other sign, so a zero result takes
// the bits of the slice's first zero, the one the loop keeps.
func MinMaxF32(xs []float32) (float32, float32) {
	if len(xs) == 0 {
		return 0, 0
	}
	i := 0
	for i < len(xs)-1 && xs[i] != xs[i] {
		i++
	}
	mn, mx := xs[i], xs[i]
	rest := xs[i+1:]
	vector := useAVX2 && len(rest) >= 32
	if vector {
		body := len(rest) &^ 31
		mn, mx = minMaxAVX2(rest[:body], mn, mx)
		rest = rest[body:]
	}
	for _, x := range rest {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	if vector && (mn == 0 || mx == 0) {
		z := xs[i+slices.Index(xs[i:], 0)]
		if mn == 0 {
			mn = z
		}
		if mx == 0 {
			mx = z
		}
	}
	return mn, mx
}

// Histogram is a fixed-width binned histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram bins xs into n equal-width bins spanning [min, max].
func NewHistogram(xs []float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	if len(xs) == 0 {
		return &Histogram{Counts: make([]int, n)}, nil
	}
	s := Summarize(xs)
	lo, hi := s.Min, s.Max
	if lo == hi {
		hi = lo + 1
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
	w := (hi - lo) / float64(n)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i >= n {
			i = n - 1
		}
		if i < 0 {
			i = 0
		}
		h.Counts[i]++
		h.Total++
	}
	return h, nil
}

// Density returns the normalized density of bin i (so that the sum over
// bins times the bin width integrates to one).
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return float64(h.Counts[i]) / (float64(h.Total) * w)
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64(w*(float64(i)+0.5))
}

// LaplaceFit is a maximum-likelihood Laplace(mu, b) fit.
type LaplaceFit struct {
	Mu float64 // location (sample median)
	B  float64 // scale (mean absolute deviation from the median)
}

// FitLaplace computes the MLE Laplace parameters of xs.
func FitLaplace(xs []float64) LaplaceFit {
	if len(xs) == 0 {
		return LaplaceFit{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mu := quantileSorted(sorted, 0.5)
	var mad float64
	for _, x := range xs {
		mad += math.Abs(x - mu)
	}
	return LaplaceFit{Mu: mu, B: mad / float64(len(xs))}
}

// CDF evaluates the fitted Laplace CDF at x.
func (f LaplaceFit) CDF(x float64) float64 {
	if f.B == 0 {
		if x < f.Mu {
			return 0
		}
		return 1
	}
	if x < f.Mu {
		return 0.5 * math.Exp((x-f.Mu)/f.B)
	}
	return 1 - float64(0.5*math.Exp(-(x-f.Mu)/f.B))
}

// GaussianFit is a maximum-likelihood Normal(mu, sigma) fit.
type GaussianFit struct {
	Mu    float64
	Sigma float64
}

// FitGaussian computes the MLE Gaussian parameters of xs.
func FitGaussian(xs []float64) GaussianFit {
	s := Summarize(xs)
	return GaussianFit{Mu: s.Mean, Sigma: s.Std}
}

// CDF evaluates the fitted Gaussian CDF at x.
func (f GaussianFit) CDF(x float64) float64 {
	if f.Sigma == 0 {
		if x < f.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-f.Mu)/(f.Sigma*math.Sqrt2))
}

// KSStatistic computes the Kolmogorov–Smirnov distance between the
// empirical distribution of xs and the theoretical CDF cdf.
func KSStatistic(xs []float64, cdf func(float64) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var d float64
	for i, x := range sorted {
		c := cdf(x)
		lo := float64(i) / n
		hi := float64(i+1) / n
		if v := math.Abs(c - lo); v > d {
			d = v
		}
		if v := math.Abs(c - hi); v > d {
			d = v
		}
	}
	return d
}

// Roughness quantifies how "spiky" a 1-D signal is: the mean absolute
// first difference normalized by the signal range. Smooth scientific
// fields score near zero; FL model parameters score much higher
// (paper Fig. 2 contrast).
func Roughness(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := Summarize(xs)
	if s.Range == 0 {
		return 0
	}
	var sum float64
	for i := 1; i < len(xs); i++ {
		sum += math.Abs(xs[i] - xs[i-1])
	}
	return sum / float64(len(xs)-1) / s.Range
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := float64(q * float64(len(sorted)-1))
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	return float64(sorted[i]*(1-frac)) + float64(sorted[i+1]*frac)
}
