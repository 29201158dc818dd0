package orchestrator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedsz/internal/cpu"
)

// withPath runs f with the AVX2 kernels on or off.
func withPath(on bool, f func()) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	useAVX2 = on
	f()
}

// Values that take every rounding and NaN rule: signed zeros,
// infinities, quiet and signalling NaNs with distinct payloads and
// signs, subnormals and the ends of the range.
var (
	special64 = []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff8000000012345),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff00000000beef0),
		math.Float64frombits(1), -math.Float64frombits(0x000fffffffffffff), math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, -math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), 1, -1,
	}
	special32 = []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00abc), math.Float32frombits(0xffc01234),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff8beef0),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff),
		math.MaxFloat32, -math.MaxFloat32, 1, -1,
	}
)

// fill64 and fill32 write ordinary values with specials sprinkled at
// random, so each special meets each lane and each other.
func fill64(rng *rand.Rand, s []float64) {
	for i := range s {
		if rng.Intn(3) == 0 {
			s[i] = special64[rng.Intn(len(special64))]
		} else {
			s[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
}

func fill32(rng *rand.Rand, s []float32) {
	for i := range s {
		if rng.Intn(3) == 0 {
			s[i] = special32[rng.Intn(len(special32))]
		} else {
			s[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10)))
		}
	}
}

func sameBits64(got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("[%d] = %#016x, want %#016x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	return nil
}

func sameBits32(got, want []float32) error {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("[%d] = %#08x, want %#08x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	return nil
}

// TestAggregatorKernelsMatchScalar pins addScaled, addRaw and divide on
// the AVX2 path to the same functions on the scalar path, bit for bit:
// every length from 0 to 67 (all head/tail splits) and MobileNetV2's
// 1280×1000 classifier, slices that start at odd element offsets, the
// special values above, and weights and totals that are negative, tiny,
// huge or round the quotient. Four guard elements past each slice must
// come back untouched.
func TestAggregatorKernelsMatchScalar(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("the CPU lacks AVX2: only the scalar loops run")
	}
	if raceEnabled {
		// The race build orders the scalar add's sources the other way
		// round (it loads sum[j] first), so of two NaNs it keeps the
		// other payload; it folds with the scalar loops alone, and the
		// detector does not see the kernels' memory anyway.
		t.Skip("the race build runs the scalar loops only")
	}
	const guard = 4
	lengths := make([]int, 0, 69)
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1280*1000)
	weights := []float64{1, 100, -1, -2.5, 1.0 / 3, 7e-310, -3e-300, 1e300, -math.MaxFloat64, math.NaN()}
	totals := []float64{1, 3, 7, 201, 0.1, 1e-300, 5e-324, 3e300, math.MaxFloat64, -6}
	rng := rand.New(rand.NewSource(45))
	for _, n := range lengths {
		ws, ts := weights, totals
		if n > 1000 {
			ws, ts = weights[:3], totals[:3]
		}
		for _, off := range []int{0, 1, 3} {
			size := off + n + guard
			sum, data, raw := make([]float64, size), make([]float32, size), make([]float64, size)
			fill64(rng, sum)
			fill32(rng, data)
			fill64(rng, raw)
			got, want := make([]float64, size), make([]float64, size)
			run64 := func(name string, f func(s []float64)) {
				copy(got, sum)
				copy(want, sum)
				withPath(true, func() { f(got[off : off+n]) })
				withPath(false, func() { f(want[off : off+n]) })
				if err := sameBits64(got, want); err != nil {
					t.Fatalf("%s n=%d off=%d: %v", name, n, off, err)
				}
			}
			for _, w := range ws {
				run64(fmt.Sprintf("addScaled w=%g", w), func(s []float64) { addScaled(s, data[off:off+n], w) })
			}
			run64("addRaw", func(s []float64) { addRaw(s, raw[off:off+n]) })
			got32, want32 := make([]float32, size), make([]float32, size)
			for _, total := range ts {
				fill32(rng, got32)
				copy(want32, got32)
				withPath(true, func() { divide(got32[off:off+n], sum[off:off+n], total) })
				withPath(false, func() { divide(want32[off:off+n], sum[off:off+n], total) })
				if err := sameBits32(got32, want32); err != nil {
					t.Fatalf("divide n=%d off=%d total=%g: %v", n, off, total, err)
				}
			}
		}
	}
}
