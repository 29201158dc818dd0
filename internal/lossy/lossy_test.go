package lossy

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestResolveAbs(t *testing.T) {
	eb, err := AbsBound(0.25).Resolve([]float32{1, 2, 3})
	if err != nil || eb != 0.25 {
		t.Fatalf("got %v, %v", eb, err)
	}
}

func TestResolveRel(t *testing.T) {
	eb, err := RelBound(0.01).Resolve([]float32{-1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eb-0.04) > 1e-12 {
		t.Fatalf("eb = %v, want 0.04", eb)
	}
}

func TestResolveRelConstantData(t *testing.T) {
	eb, err := RelBound(0.01).Resolve([]float32{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if eb != 0.05 {
		t.Fatalf("constant data eb = %v, want 0.05", eb)
	}
	eb, err = RelBound(0.01).Resolve([]float32{0, 0})
	if err != nil || eb != 0.01 {
		t.Fatalf("all-zero eb = %v err=%v", eb, err)
	}
}

func TestResolveInvalid(t *testing.T) {
	if _, err := (Params{Mode: Rel, Bound: 0}).Resolve(nil); err == nil {
		t.Fatal("expected error for zero bound")
	}
	if _, err := (Params{Mode: Rel, Bound: math.NaN()}).Resolve(nil); err == nil {
		t.Fatal("expected error for NaN bound")
	}
	if _, err := (Params{Mode: 0, Bound: 1}).Resolve(nil); err == nil {
		t.Fatal("expected error for missing mode")
	}
}

// TestResolveNonFinite pins the bounds Resolve refuses: a REL range
// holding ±Inf (or made only of NaN), and any resolved bound that is
// not positive or whose quantizer step 2ε overflows. Each used to come
// back as a bound that sz2's own decoder rejects, or that makes every
// reconstruction NaN.
func TestResolveNonFinite(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	cases := []struct {
		name string
		p    Params
		data []float32
	}{
		{"rel +Inf", RelBound(1e-2), []float32{1, 2, inf, 3}},
		{"rel -Inf", RelBound(1e-2), []float32{-inf, 1, 2}},
		{"rel ±Inf", RelBound(1e-2), []float32{inf, -inf}},
		{"rel all NaN", RelBound(1e-2), []float32{nan, nan}},
		{"rel constant +Inf", RelBound(1e-2), []float32{inf, inf}},
		{"rel overflow", RelBound(1e300), []float32{-1e10, 1e10}},
		{"rel underflow", RelBound(1e-300), []float32{0, 1e-30}},
		{"abs step overflow", AbsBound(math.MaxFloat64), nil},
	}
	for _, tc := range cases {
		if eb, err := tc.p.Resolve(tc.data); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%s: Resolve = %v, %v; want ErrInvalidParams", tc.name, eb, err)
		}
	}
	// The largest bound whose step 2ε is finite is still accepted.
	if eb, err := AbsBound(math.MaxFloat64 / 2).Resolve(nil); err != nil || eb != math.MaxFloat64/2 {
		t.Fatalf("AbsBound(MaxFloat64/2) = %v, %v", eb, err)
	}
}

// TestResolveNaNPosition pins the chosen NaN semantics: a NaN's
// position does not matter. The REL range is the range of the other
// values, whether the NaN comes first, in the middle or last.
func TestResolveNaNPosition(t *testing.T) {
	nan := float32(math.NaN())
	want, err := RelBound(0.01).Resolve([]float32{-1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]float32{
		{nan, -1, 0, 3},
		{-1, nan, 0, 3},
		{-1, 0, 3, nan},
		{nan, nan, -1, nan, 0, 3},
	} {
		if eb, err := RelBound(0.01).Resolve(data); err != nil || eb != want {
			t.Errorf("%v: Resolve = %v, %v; want %v", data, eb, err, want)
		}
	}
}

func TestModeString(t *testing.T) {
	if Abs.String() != "ABS" || Rel.String() != "REL" {
		t.Fatal("mode strings")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode string")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	buf := WriteHeader("TEST", 12345, 0.0625)
	buf = append(buf, 0xaa, 0xbb)
	count, eb, rest, err := ReadHeader("TEST", buf)
	if err != nil {
		t.Fatal(err)
	}
	if count != 12345 || eb != 0.0625 {
		t.Fatalf("count=%d eb=%v", count, eb)
	}
	if len(rest) != 2 || rest[0] != 0xaa {
		t.Fatalf("rest = %x", rest)
	}
}

func TestHeaderErrors(t *testing.T) {
	buf := WriteHeader("ABCD", 1, 1)
	if _, _, _, err := ReadHeader("WXYZ", buf); err == nil {
		t.Fatal("expected bad-magic error")
	}
	if _, _, _, err := ReadHeader("ABCD", buf[:3]); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := append([]byte(nil), buf...)
	bad[4] = 99 // version
	if _, _, _, err := ReadHeader("ABCD", bad); err == nil {
		t.Fatal("expected version error")
	}
	if _, _, _, err := ReadHeader("ABCD", buf[:6]); err == nil {
		t.Fatal("expected truncated header error")
	}
	// A bound Resolve never returns marks a forged header.
	for _, eb := range []float64{0, -1, math.NaN(), math.Inf(1), math.MaxFloat64} {
		if _, _, _, err := ReadHeader("ABCD", WriteHeader("ABCD", 1, eb)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bound %v: ReadHeader error %v, want ErrCorrupt", eb, err)
		}
	}
}

// TestHeaderCountCap: a declared count past maxCount is corrupt, and
// the cap leaves room for the size arithmetic decoders do with a count
// — count·8 and a block count's count+BlockSize−1 — on 32-bit ints too.
func TestHeaderCountCap(t *testing.T) {
	if maxCount > math.MaxInt/8 {
		t.Fatalf("maxCount %d leaves no room for count·8 in an int", maxCount)
	}
	buf := binary.AppendUvarint([]byte("ABCD\x01"), maxCount)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(1))
	if count, _, _, err := ReadHeader("ABCD", buf); err != nil || count != maxCount {
		t.Fatalf("count maxCount: %d, %v", count, err)
	}
	for _, c := range []uint64{maxCount + 1, math.MaxInt32 + 1, 1 << 40, 1 << 41, math.MaxUint64} {
		if c <= maxCount {
			continue // 1<<40 is maxCount where int is 64 bits
		}
		buf := binary.AppendUvarint([]byte("ABCD\x01"), c)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(1))
		if _, _, _, err := ReadHeader("ABCD", buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("count %d: ReadHeader error %v, want ErrCorrupt", c, err)
		}
	}
}

func TestMaxAbsError(t *testing.T) {
	if e := MaxAbsError([]float32{1, 2}, []float32{1.5, 2}); e != 0.5 {
		t.Fatalf("e = %v", e)
	}
	if e := MaxAbsError([]float32{1}, []float32{1, 2}); !math.IsInf(e, 1) {
		t.Fatalf("length mismatch should be +Inf, got %v", e)
	}
}
