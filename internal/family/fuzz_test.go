package family

import (
	"testing"

	"fedsz/internal/lossy"
)

// FuzzFamilyDecode drives every new family's payload decoder with
// arbitrary bytes. The decoders guard untrusted length fields with
// division-form overflow checks and exact stream-size validation;
// the fuzzer's job is to prove no input panics or over-allocates.
func FuzzFamilyDecode(f *testing.F) {
	names := []string{NameTopK, NameRandK, NameQSGD, NamePred}

	// Seed with valid payloads from each family so the fuzzer starts at
	// the interesting format boundaries rather than in magic-check
	// rejections.
	sample := make([]float32, 300)
	for i := range sample {
		sample[i] = float32(i%17) * 0.01
	}
	for _, s := range settings(f) {
		if buf, err := s.comp.Compress(sample, lossy.RelBound(1e-2)); err == nil {
			f.Add(buf)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("FTK1"))
	f.Add([]byte("FRK1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte("FQG1\x10"))
	f.Add([]byte("FPR1\x00\x00\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, buf []byte) {
		for _, name := range names {
			c, err := lossy.New(name)
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.Decompress(buf)
			if err == nil && len(out) > maxElems {
				t.Fatalf("%s: decoded %d elements past the cap", name, len(out))
			}
		}
	})
}
