package family

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// TestFamilyRoundTripGrid round-trips every (family, grid setting)
// pair and checks the bound for bound-guaranteed settings and the
// sparsity/shape contract for the rest.
func TestFamilyRoundTripGrid(t *testing.T) {
	data := testData(t, 4096, 11)
	mn, mx := stats.MinMaxF32(data)
	bound := lossy.RelBound(1e-2)
	abs := 1e-2 * float64(mx-mn)

	for _, name := range []string{NameTopK, NameRandK, NameQSGD, NamePred} {
		fam, err := lossy.FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range lossy.GridOf(fam) {
			comp, err := fam.Compressor(s)
			if err != nil {
				t.Fatalf("%s %s: %v", name, s, err)
			}
			if name == NameRandK && s.IsZero() {
				// randk's zero setting exists only so frames decode; it
				// must refuse to compress.
				if _, err := comp.Compress(data, bound); err == nil {
					t.Errorf("randk zero setting compressed without error")
				}
				continue
			}
			buf, err := comp.Compress(data, bound)
			if err != nil {
				t.Fatalf("%s %s: compress: %v", name, s, err)
			}
			dec, err := comp.Decompress(buf)
			if err != nil {
				t.Fatalf("%s %s: decompress: %v", name, s, err)
			}
			if len(dec) != len(data) {
				t.Fatalf("%s %s: decoded %d elements, want %d", name, s, len(dec), len(data))
			}
			if fam.Bounded(s) {
				if e := lossy.MaxAbsError(data, dec); e > abs*(1+1e-6) {
					t.Errorf("%s %s: max error %g beyond bound %g", name, s, e, abs)
				}
			}
			if s.Fraction > 0 {
				nz := 0
				for _, v := range dec {
					if v != 0 {
						nz++
					}
				}
				// Rand-k's selection is probabilistic per element, so allow
				// 2x slack over the nominal budget; top-k is exact.
				limit := int(math.Ceil(s.Fraction * float64(len(data))))
				if name == NameRandK {
					limit *= 2
				}
				if nz > limit {
					t.Errorf("%s %s: %d nonzero, budget %d", name, s, nz, limit)
				}
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
	fam, err := lossy.FamilyByName(NameRandK)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := fam.Compressor(lossy.Setting{Fraction: 0.1})
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

// TestFamilySettingValidation pins each family's setting domain.
func TestFamilySettingValidation(t *testing.T) {
	cases := []struct {
		fam string
		s   lossy.Setting
	}{
		{NameTopK, lossy.Setting{Fraction: 1.5}},
		{NameTopK, lossy.Setting{Bits: 8}},
		{NameRandK, lossy.Setting{Fraction: -0.1}},
		{NameQSGD, lossy.Setting{Bits: 99}},
		{NameQSGD, lossy.Setting{Fraction: 0.5}},
		{NamePred, lossy.Setting{Fraction: 0.5}},
		{NamePred, lossy.Setting{Bits: 8}},
	}
	for _, tc := range cases {
		fam, err := lossy.FamilyByName(tc.fam)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fam.Compressor(tc.s); err == nil {
			t.Errorf("%s accepted out-of-domain setting %s", tc.fam, tc.s)
		}
	}
}

// TestDecodeRejectsCorruption feeds each decoder truncated and
// bit-flipped versions of valid payloads; every mutation must fail
// cleanly or decode to the right element count — never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	data := testData(t, 512, 29)
	for _, name := range []string{NameTopK, NameRandK, NameQSGD, NamePred} {
		fam, err := lossy.FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := lossy.Setting{}
		if name == NameRandK {
			s = lossy.Setting{Fraction: 0.25}
		}
		comp, err := fam.Compressor(s)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := comp.Compress(data, lossy.RelBound(1e-2))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := lossy.New(name)
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
