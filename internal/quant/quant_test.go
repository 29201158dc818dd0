package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeWithinBound(t *testing.T) {
	q := New(0.01, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		pred := rng.NormFloat64()
		val := pred + rng.NormFloat64()*0.5
		code, recon, ok := q.Encode(val, pred)
		if !ok {
			continue
		}
		if got := q.Decode(code, pred); got != recon {
			t.Fatalf("decode mismatch: %v vs %v", got, recon)
		}
		if math.Abs(recon-val) > 0.01*(1+1e-9) {
			t.Fatalf("bound violated: |%v-%v| = %v", recon, val, math.Abs(recon-val))
		}
	}
}

func TestUnpredictable(t *testing.T) {
	q := New(1e-6, 4)
	if _, _, ok := q.Encode(1.0, 0.0); ok {
		t.Fatal("expected unpredictable for huge error with tiny radius")
	}
	if _, _, ok := q.Encode(math.NaN(), 0.0); ok {
		t.Fatal("expected unpredictable for NaN")
	}
}

func TestZeroErrorIsCodeZero(t *testing.T) {
	q := New(0.5, 0)
	code, recon, ok := q.Encode(3.25, 3.25)
	if !ok || code != 0 || recon != 3.25 {
		t.Fatalf("got code=%d recon=%v ok=%v", code, recon, ok)
	}
}

func TestPanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for eb <= 0")
		}
	}()
	New(0, 0)
}

func TestDefaults(t *testing.T) {
	q := New(0.1, 0)
	if q.Radius() != DefaultRadius {
		t.Fatalf("radius = %d", q.Radius())
	}
	if q.Bound() != 0.1 {
		t.Fatalf("bound = %v", q.Bound())
	}
}

// Property: for any (val, pred) pair, either the value is flagged
// unpredictable or the round-trip honors the bound exactly.
func TestQuickBoundInvariant(t *testing.T) {
	q := New(0.003, 0)
	f := func(val, pred float64) bool {
		if math.IsNaN(val) || math.IsInf(val, 0) || math.IsNaN(pred) || math.IsInf(pred, 0) {
			return true
		}
		code, recon, ok := q.Encode(val, pred)
		if !ok {
			return true
		}
		if q.Decode(code, pred) != recon {
			return false
		}
		return math.Abs(recon-val) <= 0.003*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundMatchesMathRound pins Round to math.Round bit for bit: the
// ties k+0.5 and their neighbours in every binade below 2^53, ±0,
// subnormals, ±Inf, quiet and signaling NaNs, and a million seeded
// random bit patterns.
func TestRoundMatchesMathRound(t *testing.T) {
	check := func(x float64) {
		if got, want := Round(x), math.Round(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Round(%v [%#016x]) = %v [%#016x], math.Round gives %v [%#016x]",
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	both := func(x float64) {
		for _, v := range []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))} {
			check(v)
			check(-v)
		}
	}
	both(0.5)
	for e := 0; e < 53; e++ {
		k := math.Ldexp(1, e)
		for _, m := range []float64{k, k + 1, 2*k - 1} { // even and odd integers in the binade
			both(m + 0.5)
			both(m)
		}
	}
	both(math.Ldexp(1, 53))
	for _, bits := range []uint64{
		0, 1 << 63, // ±0
		1, 0x000fffffffffffff, 1<<63 | 1, // subnormals
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000000, 0xfff8000000000001, // quiet NaNs
		0x7ff0000000000001, 0xfff4000000000000, // signaling NaNs
	} {
		check(math.Float64frombits(bits))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
		// Values with a fractional part, which random bit patterns
		// rarely give.
		check(rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)))
	}
}
