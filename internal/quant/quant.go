// Package quant implements the error-bounded linear quantizer shared by
// the prediction-based compressors (SZ2, SZ3).
//
// Prediction errors are mapped onto integer codes with step 2ε, which
// guarantees that the reconstructed value differs from the original by
// at most ε (the absolute error bound). Codes outside the configured
// radius mark the value "unpredictable"; such values are stored
// verbatim by the caller.
//
// Codes round half away from zero, as math.Round does. Round computes
// that through math.RoundToEven, which the compiler lowers to one
// ROUNDSD on amd64 with SSE4.1 (FRINTN on arm64), where math.Round is
// pure-Go bit manipulation with a data-dependent branch; only exact
// ties, ±Inf and NaN leave that path. Encode and sz2's block loops
// round through it, so every code is the one math.Round gives.
package quant

import "math"

// DefaultRadius matches SZ's default 2^15 quantization intervals to
// either side of zero.
const DefaultRadius = 32768

// Quantizer maps prediction errors to integer codes with a fixed
// absolute error bound.
type Quantizer struct {
	eb     float64 // absolute error bound (half step)
	step   float64 // 2*eb
	radius int
}

// New returns a Quantizer with absolute bound eb > 0 and the given
// radius (maximum |code|). A non-positive radius selects DefaultRadius.
func New(eb float64, radius int) Quantizer {
	if eb <= 0 {
		panic("quant: error bound must be positive")
	}
	if radius <= 0 {
		radius = DefaultRadius
	}
	return Quantizer{eb: eb, step: 2 * eb, radius: radius}
}

// Bound returns the absolute error bound.
func (q Quantizer) Bound() float64 { return q.eb }

// Radius returns the maximum code magnitude.
func (q Quantizer) Radius() int { return q.radius }

// Encode quantizes the difference between val and pred. It returns the
// integer code, the reconstructed value the decoder will produce, and
// whether the value was quantizable. When ok is false the caller must
// store val exactly.
func (q Quantizer) Encode(val, pred float64) (code int, recon float64, ok bool) {
	diff := val - pred
	c := Round(diff / q.step)
	if math.Abs(c) > float64(q.radius) || math.IsNaN(c) {
		return 0, 0, false
	}
	code = int(c)
	recon = pred + float64(float64(code)*q.step)
	// Guard against floating-point edge cases: if rounding pushed the
	// reconstruction outside the bound, treat as unpredictable.
	if math.Abs(recon-val) > q.eb*(1+1e-9) {
		return 0, 0, false
	}
	return code, recon, true
}

// Round returns math.Round(x) bit for bit on every input. Away from an
// exact tie both roundings pick the one nearest integer, and x−r is
// exact, so two cases leave the fast path: |x−r| = 0.5, a tie that
// RoundToEven may have taken toward zero, and a NaN difference (x is
// NaN or ±Inf), which returns x itself — ROUNDSD would quiet a
// signaling NaN.
func Round(x float64) float64 {
	r := math.RoundToEven(x)
	if d := x - r; !(d > -0.5 && d < 0.5) {
		if d != d {
			return x
		}
		if math.Signbit(d) == math.Signbit(x) { // rounded toward zero
			return r + 2*d
		}
	}
	return r
}

// MaxRadius is the largest radius a decoder takes from a stream: with it,
// every code up to 2·radius+1 and every offset code−radius−1 fit an
// int32.
const MaxRadius = 1 << 30

// ValidStream reports whether radius, read from a stream, lies in
// [1, MaxRadius] and maxCode, the largest code the stream's table holds,
// is at most 2·radius+1, the largest code an encoder at that radius
// writes.
func ValidStream(radius uint64, maxCode int32) bool {
	return radius >= 1 && radius <= MaxRadius && int64(maxCode) <= 2*int64(radius)+1
}

// Decode reconstructs a value from its code and prediction. Here and in
// Encode the product is converted explicitly, which keeps a compiler
// from fusing it into the add (arm64's does): the decoder rebuilds the
// value the encoder checked on every architecture.
func (q Quantizer) Decode(code int, pred float64) float64 {
	return pred + float64(float64(code)*q.step)
}
