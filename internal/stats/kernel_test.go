package stats_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedsz/internal/lossy"
	"fedsz/internal/stats"
)

// TestMinMaxKernelMatchesScalar runs MinMaxF32 with the eight-lane
// kernel on and off and compares the results' bits, and the bits of the
// REL bound Resolve derives from them: over lengths 0–100 and 1 280 000
// at offsets 0–7, a NaN first, last and at every position, all-NaN
// slices, ±Inf, subnormals, ±MaxFloat32 and signed zeros in every
// order. It skips without AVX2 and under the race detector, where
// MinMaxF32 runs the scalar loop only.
func TestMinMaxKernelMatchesScalar(t *testing.T) {
	if !*stats.UseAVX2 {
		t.Skip("no AVX2 kernel in this build")
	}
	defer func() { *stats.UseAVX2 = true }()
	nan := math.Float32frombits(0x7fc00001)
	negNaN := math.Float32frombits(0xffa00002) // signalling, negative
	negZero := float32(math.Copysign(0, -1))
	special := []float32{
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), // subnormals
		math.MaxFloat32, -math.MaxFloat32, 0, negZero,
	}
	check := func(name string, xs []float32) {
		t.Helper()
		*stats.UseAVX2 = false
		wantLo, wantHi := stats.MinMaxF32(xs)
		wantEB, wantErr := lossy.RelBound(1e-2).Resolve(xs)
		*stats.UseAVX2 = true
		lo, hi := stats.MinMaxF32(xs)
		eb, err := lossy.RelBound(1e-2).Resolve(xs)
		if math.Float32bits(lo) != math.Float32bits(wantLo) || math.Float32bits(hi) != math.Float32bits(wantHi) {
			t.Fatalf("%s (len %d): kernel gave [%#08x, %#08x], the scalar loop [%#08x, %#08x]", name, len(xs),
				math.Float32bits(lo), math.Float32bits(hi), math.Float32bits(wantLo), math.Float32bits(wantHi))
		}
		if math.Float64bits(eb) != math.Float64bits(wantEB) || (err == nil) != (wantErr == nil) {
			t.Fatalf("%s (len %d): Resolve gave %v (%v), the scalar loop %v (%v)", name, len(xs), eb, err, wantEB, wantErr)
		}
	}

	rng := rand.New(rand.NewSource(46))
	const big = 1_280_000
	buf := make([]float32, big+8)
	fill := func(xs []float32) {
		for i := range xs {
			xs[i] = float32(rng.NormFloat64() * 0.05)
		}
	}
	for off := 0; off < 8; off++ {
		for n := 0; n <= 100; n++ {
			xs := buf[off : off+n]
			fill(xs)
			check(fmt.Sprintf("random off %d", off), xs)
			for p := range xs {
				v := xs[p]
				xs[p] = nan
				check(fmt.Sprintf("NaN at %d off %d", p, off), xs)
				xs[p] = special[(p+off)%len(special)]
				check(fmt.Sprintf("special at %d off %d", p, off), xs)
				xs[p] = v
			}
			for p := range xs {
				xs[p] = []float32{nan, negNaN}[p%2]
			}
			check("all NaN", xs)
			if n > 0 {
				xs[n-1] = 1
				check("NaN but last", xs)
			}
			// Signed zeros alone, then with a positive and a negative
			// rest, where the zeros are the minimum or the maximum.
			for _, rest := range []float32{0, 1, -1} {
				for i := range xs {
					xs[i] = rest * float32(1+rng.Intn(100))
					if rng.Intn(3) == 0 {
						xs[i] = []float32{0, negZero}[rng.Intn(2)]
					}
				}
				check(fmt.Sprintf("zeros, rest %v", rest), xs)
			}
		}
		xs := buf[off : off+big]
		fill(xs)
		check("big", xs)
		xs[0], xs[big-1] = nan, negNaN
		check("big, NaN ends", xs)
		for _, p := range []int{1, 31, 32, 33, big / 2, big - 33, big - 2} {
			xs[p] = negNaN
		}
		check("big, NaNs inside", xs)
		xs[big/3], xs[big/2+1] = float32(math.Inf(-1)), math.MaxFloat32
		check("big, infinities", xs)
		for i := range xs {
			xs[i] = float32(math.Abs(float64(xs[i])))
		}
		xs[big-5], xs[big-40], xs[big/7] = negZero, 0, negZero
		check("big, nonnegative with zeros", xs)
	}

	// ±0 in every order: two zeros of each sign pairing at every pair of
	// positions, over positive, negative and zero rests.
	const n = 70
	for _, rest := range []float32{3, -3} {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for _, z := range [][2]float32{{0, negZero}, {negZero, 0}, {negZero, negZero}} {
					xs := buf[i%8 : i%8+n]
					for k := range xs {
						xs[k] = rest
					}
					xs[i], xs[j] = z[0], z[1]
					check(fmt.Sprintf("zeros %v at %d, %d, rest %v", z, i, j, rest), xs)
				}
			}
		}
	}
}
