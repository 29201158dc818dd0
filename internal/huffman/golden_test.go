package huffman

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The golden files pin the wire format: they were produced by the
// original (pre-streaming) encoder and every future encoder must emit
// byte-identical streams. Regenerate with `go test -run Golden -update`
// only on a deliberate format change.
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenCases returns deterministic symbol streams covering the shapes
// the entropy stage sees in practice: centered quantization codes,
// byte-alphabet LZ tokens, sparse alphabets and degenerate streams.
func goldenCases() map[string][]int32 {
	rng := rand.New(rand.NewSource(7))
	skew := make([]int32, 50000)
	for i := range skew {
		skew[i] = int32(rng.NormFloat64()*4) + 32768
	}
	tokens := make([]int32, 20000)
	for i := range tokens {
		tokens[i] = int32(rng.Intn(256))
	}
	sparse := make([]int32, 1000)
	for i := range sparse {
		sparse[i] = []int32{0, 3, 900000, 12, 500000}[rng.Intn(5)]
	}
	return map[string][]int32{
		"quantcodes": skew,
		"lztokens":   tokens,
		"sparse":     sparse,
		"single":     {42, 42, 42, 42, 42, 42},
		"empty":      {},
	}
}

func TestGoldenBitstream(t *testing.T) {
	for name, syms := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			got, err := AppendEncode(nil, syms)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			path := filepath.Join("testdata", "encode_"+name+".golden")
			if *updateGolden {
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
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: encoder output diverged from golden wire format (%d vs %d bytes)", name, len(got), len(want))
			}
			// Old streams must keep decoding: the golden bytes themselves
			// go through the current decoder.
			dec, err := decode(want)
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			if len(dec) != len(syms) {
				t.Fatalf("decoded %d symbols, want %d", len(dec), len(syms))
			}
			for i := range syms {
				if dec[i] != syms[i] {
					t.Fatalf("symbol %d: got %d want %d", i, dec[i], syms[i])
				}
			}
		})
	}
}
