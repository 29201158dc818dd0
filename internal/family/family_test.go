package family

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedsz/internal/lossy"
	"fedsz/internal/quant"
	"fedsz/internal/stats"
)

func testData(t *testing.T, n int, seed int64) []float32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(rng.NormFloat64()) * 0.1
	}
	return data
}

// setting is one compressor configuration under test: a registered
// name as registered, or a constructor's non-default setting. Its
// payloads decode through the registered name.
type setting struct {
	label    string
	name     string  // registered name whose decoder reads the payload
	bounded  bool    // honours the error bound
	fraction float64 // kept fraction of a budgeted sparsifier, else 0
	comp     lossy.Compressor
}

// settings lists the registered families and the constructors' settings
// (top-k fractions 0.01/0.05/0.1, qsgd widths 4/6/8, rand-k fractions
// 0.05/0.1/0.25).
func settings(tb testing.TB) []setting {
	tb.Helper()
	registered := func(name string) setting {
		fam, err := lossy.FamilyByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		return setting{label: name, name: name, bounded: fam.Bounded, comp: fam.New()}
	}
	built := func(label, name string, fraction float64, c lossy.Compressor, err error) setting {
		if err != nil {
			tb.Fatalf("%s: %v", label, err)
		}
		return setting{label: label, name: name, fraction: fraction, comp: c}
	}
	var out []setting
	out = append(out, registered(NameTopK))
	for _, f := range []float64{0.01, 0.05, 0.1} {
		c, err := TopK(f)
		out = append(out, built(fmt.Sprintf("topk frac=%g", f), NameTopK, f, c, err))
	}
	for _, f := range []float64{0.05, 0.1, 0.25} {
		c, err := RandK(f)
		out = append(out, built(fmt.Sprintf("randk frac=%g", f), NameRandK, f, c, err))
	}
	out = append(out, registered(NameQSGD))
	for _, b := range []int{4, 6, 8} {
		c, err := QSGD(b)
		out = append(out, built(fmt.Sprintf("qsgd bits=%d", b), NameQSGD, 0, c, err))
	}
	return append(out, registered(NamePred))
}

// TestFamilyRoundTripGrid round-trips every setting of settings and
// checks the bound for bound-guaranteed settings and the sparsity and
// shape contract for the rest.
func TestFamilyRoundTripGrid(t *testing.T) {
	data := testData(t, 4096, 11)
	mn, mx := stats.MinMaxF32(data)
	bound := lossy.RelBound(1e-2)
	abs := 1e-2 * float64(mx-mn)

	for _, s := range settings(t) {
		buf, err := s.comp.Compress(data, bound)
		if err != nil {
			t.Fatalf("%s: compress: %v", s.label, err)
		}
		dec, err := s.comp.Decompress(buf)
		if err != nil {
			t.Fatalf("%s: decompress: %v", s.label, err)
		}
		if len(dec) != len(data) {
			t.Fatalf("%s: decoded %d elements, want %d", s.label, len(dec), len(data))
		}
		if s.bounded {
			if e := lossy.MaxAbsError(data, dec); e > abs*(1+1e-6) {
				t.Errorf("%s: max error %g beyond bound %g", s.label, e, abs)
			}
		}
		if s.fraction > 0 {
			nz := 0
			for _, v := range dec {
				if v != 0 {
					nz++
				}
			}
			// Rand-k's selection is probabilistic per element, so allow
			// 2x slack over the nominal budget; top-k is exact.
			limit := int(math.Ceil(s.fraction * float64(len(data))))
			if s.name == NameRandK {
				limit *= 2
			}
			if nz > limit {
				t.Errorf("%s: %d nonzero, budget %d", s.label, nz, limit)
			}
		}
	}
}

// TestFamilyEmptyAndTiny covers the degenerate inputs every compressor
// must survive: empty, single-element and constant tensors.
func TestFamilyEmptyAndTiny(t *testing.T) {
	bound := lossy.RelBound(1e-2)
	inputs := [][]float32{
		{},
		{1.5},
		{0, 0, 0, 0},
		{2, 2, 2, 2, 2},
	}
	for _, name := range []string{NameTopK, NameQSGD, NamePred} {
		c, err := lossy.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			buf, err := c.Compress(in, bound)
			if err != nil {
				t.Fatalf("%s %v: %v", name, in, err)
			}
			dec, err := c.Decompress(buf)
			if err != nil {
				t.Fatalf("%s %v: %v", name, in, err)
			}
			if len(dec) != len(in) {
				t.Fatalf("%s %v: decoded %d elements", name, in, len(dec))
			}
		}
	}
}

// TestRandKDeterministic pins that rand-k's element selection derives
// from the data alone: identical inputs yield identical payloads (the
// frame byte-determinism invariant).
func TestRandKDeterministic(t *testing.T) {
	data := testData(t, 2048, 3)
	comp, err := RandK(0.1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := comp.Compress(data, lossy.RelBound(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := comp.Compress(data, lossy.RelBound(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("randk payloads differ across identical compress calls")
	}
}

// TestQSGDNonFinite pins the raw-mode escape hatch: non-finite inputs
// round-trip exactly instead of poisoning the quantizer.
func TestQSGDNonFinite(t *testing.T) {
	c, err := lossy.New(NameQSGD)
	if err != nil {
		t.Fatal(err)
	}
	data := []float32{1, float32(math.Inf(1)), -2, float32(math.NaN())}
	buf, err := c.Compress(data, lossy.AbsBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0] != 1 || !math.IsInf(float64(dec[1]), 1) || dec[2] != -2 || !math.IsNaN(float64(dec[3])) {
		t.Fatalf("non-finite round trip corrupted: %v", dec)
	}
}

// TestFamilySettingValidation pins each constructor's domain: a
// fraction in (0, 1), a width in [1, 16].
func TestFamilySettingValidation(t *testing.T) {
	cases := []struct {
		label string
		build func() (lossy.Compressor, error)
	}{
		{"TopK(0)", func() (lossy.Compressor, error) { return TopK(0) }},
		{"TopK(1)", func() (lossy.Compressor, error) { return TopK(1) }},
		{"TopK(1.5)", func() (lossy.Compressor, error) { return TopK(1.5) }},
		{"RandK(-0.1)", func() (lossy.Compressor, error) { return RandK(-0.1) }},
		{"RandK(NaN)", func() (lossy.Compressor, error) { return RandK(math.NaN()) }},
		{"QSGD(0)", func() (lossy.Compressor, error) { return QSGD(0) }},
		{"QSGD(17)", func() (lossy.Compressor, error) { return QSGD(17) }},
		{"QSGD(99)", func() (lossy.Compressor, error) { return QSGD(99) }},
	}
	for _, tc := range cases {
		if _, err := tc.build(); err == nil {
			t.Errorf("%s accepted an out-of-domain setting", tc.label)
		}
	}
}

// TestDecodeRejectsCorruption feeds each decoder truncated and
// bit-flipped versions of valid payloads; every mutation must fail
// cleanly or decode to the right element count — never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	data := testData(t, 512, 29)
	for _, name := range []string{NameTopK, NameRandK, NameQSGD, NamePred} {
		dec, err := lossy.New(name)
		if err != nil {
			t.Fatal(err)
		}
		comp := dec
		if name == NameRandK {
			if comp, err = RandK(0.25); err != nil {
				t.Fatal(err)
			}
		}
		buf, err := comp.Compress(data, lossy.RelBound(1e-2))
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut += 7 {
			if out, err := dec.Decompress(buf[:cut]); err == nil && len(out) != len(data) {
				t.Fatalf("%s: truncation at %d decoded to %d elements", name, cut, len(out))
			}
		}
		for i := 0; i < len(buf); i += 11 {
			mut := append([]byte(nil), buf...)
			mut[i] ^= 0x41
			_, _ = dec.Decompress(mut) // must not panic; error or garbage is fine
		}
	}
}

// TestPredRejectsForgedRadius: a pred section whose radius lies outside
// [1, quant.MaxRadius] (2^63 wraps int) or below its codes is rejected,
// where it used to decode into values far off the bound.
func TestPredRejectsForgedRadius(t *testing.T) {
	data := testData(t, 2000, 4)
	buf, err := pred{}.Compress(data, lossy.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (pred{}).Decompress(buf); err != nil {
		t.Fatal(err)
	}
	_, _, rest, err := lossy.ReadHeader(predMagic, buf)
	if err != nil {
		t.Fatal(err)
	}
	head := buf[:len(buf)-len(rest)]
	_, n := binary.Uvarint(rest)
	tail := rest[n:]
	for _, r := range []uint64{0, 100, quant.MaxRadius + 1, 1 << 40, 1 << 63} {
		forged := append(binary.AppendUvarint(bytes.Clone(head), r), tail...)
		if _, err := (pred{}).Decompress(forged); !errors.Is(err, lossy.ErrCorrupt) {
			t.Errorf("radius %d: decoded with error %v, want lossy.ErrCorrupt", r, err)
		}
	}
}
