package sz2

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fedsz/internal/lossy"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenData builds a deterministic tensor-like signal: a smooth ramp
// with Gaussian noise plus a few large spikes, which exercises both
// predictors, the quantizer and the outlier path.
func goldenData(n int) []float32 {
	rng := rand.New(rand.NewSource(11))
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(float32(i%977)*1e-3) + float32(float32(rng.NormFloat64())*0.05)
		if rng.Float64() < 0.002 {
			data[i] *= 1e4
		}
	}
	return data
}

// goldenCases are the settings each golden stream was compressed with.
var goldenCases = []struct {
	name string
	c    *Compressor
	p    lossy.Params
}{
	{"rel1e2", New(), lossy.RelBound(1e-2)},
	{"rel1e4", New(), lossy.RelBound(1e-4)},
	{"abs_nolossless", New(WithLosslessStage(nil)), lossy.AbsBound(1e-3)},
	{"noregression", New(WithoutRegression()), lossy.RelBound(1e-2)},
}

// TestGoldenBitstream pins the SZ2 wire format: compressed output must
// stay byte-identical to the committed golden streams, on the scalar
// path and on the AVX2 path, and the golden streams (standing in for
// bitstreams produced by older releases) must keep decoding within the
// recorded bound.
func TestGoldenBitstream(t *testing.T) {
	data := goldenData(40000)
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "sz2_"+tc.name+".golden")
			if *updateGolden {
				got, err := tc.c.Compress(data, tc.p)
				if err != nil {
					t.Fatalf("compress: %v", err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden file missing (run with -update): %v", err)
			}
			eb, err := tc.p.Resolve(data)
			if err != nil {
				t.Fatal(err)
			}
			eachPath(t, func(t *testing.T) {
				got, err := tc.c.Compress(data, tc.p)
				if err != nil {
					t.Fatalf("compress: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: compressed stream diverged from golden wire format (%d vs %d bytes)", tc.name, len(got), len(want))
				}
				dec, err := tc.c.Decompress(want)
				if err != nil {
					t.Fatalf("decompress golden: %v", err)
				}
				if e := lossy.MaxAbsError(data, dec); e > eb {
					t.Fatalf("golden decode error %g exceeds bound %g", e, eb)
				}
			})
		})
	}
}

// TestGoldenV1Decodes keeps first-version sections (raw float32
// coefficients, magic SZ2\x01) decoding: each fixture, written by the
// last v1 encoder from goldenData(40000), decodes within the bound its
// header records, to the same bits the v1 decoder produced, on the
// scalar path and on the AVX2 path.
func TestGoldenV1Decodes(t *testing.T) {
	data := goldenData(40000)
	want := map[string]uint64{ // FNV-1a over the v1 decoder's output bits
		"rel1e2":         0xeebc4d8be0d0ab01,
		"rel1e4":         0x3845f64ae625aca7,
		"abs_nolossless": 0x441879dbc308a1b6,
		"noregression":   0x29c9cd60b485516b,
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := os.ReadFile(filepath.Join("testdata", "sz2v1_"+tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			_, eb, _, err := lossy.ReadHeader(magicV1, buf)
			if err != nil {
				t.Fatalf("not a v1 section: %v", err)
			}
			eachPath(t, func(t *testing.T) {
				dec, err := tc.c.Decompress(buf)
				if err != nil {
					t.Fatalf("decompress v1 golden: %v", err)
				}
				if len(dec) != len(data) {
					t.Fatalf("decoded %d values, want %d", len(dec), len(data))
				}
				if e := lossy.MaxAbsError(data, dec); e > eb {
					t.Fatalf("v1 decode error %g exceeds its recorded bound %g", e, eb)
				}
				h := fnv.New64a()
				var word [4]byte
				for _, v := range dec {
					binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
					h.Write(word[:])
				}
				if got := h.Sum64(); got != want[tc.name] {
					t.Fatalf("v1 decode changed: hash %#016x, want %#016x", got, want[tc.name])
				}
			})
		})
	}
}
