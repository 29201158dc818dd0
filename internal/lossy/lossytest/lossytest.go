// Package lossytest provides the shared conformance suite run against
// every error-bounded lossy compressor in the repository. Each
// compressor package invokes Run from its own tests, so all four codecs
// are held to the same contract:
//
//   - round-trip length preservation,
//   - the absolute error bound recorded in the header is honored,
//   - degenerate inputs (empty, constant, single value) survive,
//   - property-based random inputs stay within bound.
package lossytest

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fedsz/internal/lossy"
)

// Tolerance is the relative slack allowed on bound checks to absorb
// float32 rounding of reconstructed values.
const Tolerance = 1e-6

// Corpus returns named float32 datasets covering the shapes the
// compressors meet in practice.
func Corpus(seed int64) map[string][]float32 {
	rng := rand.New(rand.NewSource(seed))

	spiky := make([]float32, 8192) // FL-parameter-like: Gaussian + heavy tails
	for i := range spiky {
		v := rng.NormFloat64() * 0.05
		if rng.Float64() < 0.01 {
			v *= 20
		}
		spiky[i] = float32(v)
	}

	smooth := make([]float32, 8192) // scientific-data-like
	for i := range smooth {
		x := float64(i) / 512
		smooth[i] = float32(math.Sin(2*math.Pi*x) + float64(0.3*math.Sin(11*x)))
	}

	steps := make([]float32, 4096) // piecewise constant
	level := float32(0)
	for i := range steps {
		if i%97 == 0 {
			level = float32(rng.NormFloat64())
		}
		steps[i] = level
	}

	tiny := []float32{1e-30, -1e-30, 2e-30, 0, -3e-30}

	return map[string][]float32{
		"empty":    {},
		"one":      {3.25},
		"constant": {1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5},
		"spiky":    spiky,
		"smooth":   smooth,
		"steps":    steps,
		"tiny":     tiny,
		"short":    {0.1, -0.2, 0.3},
	}
}

// Run executes the conformance suite against c with a strict error
// bound (modulo float32 rounding tolerance).
func Run(t *testing.T, c lossy.Compressor) {
	t.Helper()
	RunSlack(t, c, 1)
}

// RunSlack executes the conformance suite allowing maxErr up to
// slack×bound. ZFP's fixed-precision mode — the paper's "closest
// analogous option" to a relative bound — provides no hard error
// guarantee, so its suite runs with slack > 1.
func RunSlack(t *testing.T, c lossy.Compressor, slack float64) {
	t.Helper()

	bounds := []lossy.Params{
		lossy.RelBound(1e-1),
		lossy.RelBound(1e-2),
		lossy.RelBound(1e-3),
		lossy.RelBound(1e-4),
		lossy.AbsBound(1e-3),
	}

	for name, data := range Corpus(7) {
		for _, p := range bounds {
			name, data, p := name, data, p
			t.Run(name+"/"+p.Mode.String()+"/"+formatBound(p.Bound), func(t *testing.T) {
				buf, err := c.Compress(data, p)
				if err != nil {
					t.Fatalf("compress: %v", err)
				}
				got, err := c.Decompress(buf)
				if err != nil {
					t.Fatalf("decompress: %v", err)
				}
				if len(got) != len(data) {
					t.Fatalf("length: got %d want %d", len(got), len(data))
				}
				checkDecompressInto(t, c, buf, got)
				eb, err := p.Resolve(data)
				if err != nil {
					t.Fatal(err)
				}
				if maxErr := lossy.MaxAbsError(data, got); maxErr > eb*slack*(1+Tolerance) {
					t.Fatalf("bound violated: maxErr=%g > eb=%g (slack %g)", maxErr, eb, slack)
				}
			})
		}
	}

	t.Run("invalid-params", func(t *testing.T) {
		if _, err := c.Compress([]float32{1, 2}, lossy.Params{}); err == nil {
			t.Fatal("expected error for zero params")
		}
		if _, err := c.Compress([]float32{1, 2}, lossy.RelBound(-1)); err == nil {
			t.Fatal("expected error for negative bound")
		}
	})

	t.Run("corrupt-input", func(t *testing.T) {
		if _, err := c.Decompress([]byte("garbage!")); err == nil {
			t.Fatal("expected error for garbage input")
		}
		if _, err := c.Decompress(nil); err == nil {
			t.Fatal("expected error for empty input")
		}
	})

	t.Run("quick-bound-invariant", func(t *testing.T) {
		f := func(seed int64, n uint16, scalePow int8) bool {
			rng := rand.New(rand.NewSource(seed))
			size := int(n)%3000 + 1
			scale := math.Pow(2, float64(scalePow%20))
			data := make([]float32, size)
			for i := range data {
				data[i] = float32(rng.NormFloat64() * scale)
			}
			p := lossy.RelBound(1e-2)
			buf, err := c.Compress(data, p)
			if err != nil {
				return false
			}
			got, err := c.Decompress(buf)
			if err != nil || len(got) != len(data) {
				return false
			}
			eb, _ := p.Resolve(data)
			return lossy.MaxAbsError(data, got) <= eb*slack*(1+Tolerance)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

// checkDecompressInto holds lossy.DecompressInto to Decompress's output
// bit for bit from a dirty dst that is too short and one that is too
// long: neither dst's length nor its contents may show.
func checkDecompressInto(t *testing.T, c lossy.Compressor, buf []byte, want []float32) {
	t.Helper()
	for _, n := range []int{len(want) / 2, len(want) + 9} {
		dst := make([]float32, n)
		for i := range dst {
			dst[i] = float32(math.NaN())
		}
		got, err := lossy.DecompressInto(c, dst, buf)
		sameBits := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
		if err != nil || !slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("DecompressInto(dst of %d): error %v, or not the %d values Decompress gave", n, err, len(want))
		}
	}
}

// CompressionRatio round-trips data and returns the achieved ratio,
// failing the test on any error or bound violation.
func CompressionRatio(t *testing.T, c lossy.Compressor, data []float32, p lossy.Params) float64 {
	t.Helper()
	buf, err := c.Compress(data, p)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	got, err := c.Decompress(buf)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	eb, err := p.Resolve(data)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr := lossy.MaxAbsError(data, got); maxErr > eb*(1+Tolerance) {
		t.Fatalf("bound violated: maxErr=%g > eb=%g", maxErr, eb)
	}
	return float64(len(data)*4) / float64(len(buf))
}

func formatBound(b float64) string {
	switch {
	case b >= 0.1:
		return "1e-1"
	case b >= 0.01:
		return "1e-2"
	case b >= 0.001:
		return "1e-3"
	default:
		return "1e-4"
	}
}
