package huffman_test

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"fedsz/internal/huffman"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/sz2"
)

// sz2Streams returns the Huffman streams of an sz2 section written
// without its lossless stage: the regression coefficients' stream, if
// any, then the element codes', which ends the payload.
func sz2Streams(t *testing.T, frame []byte) [][]byte {
	t.Helper()
	count, _, rest, err := lossy.ReadHeader("SZ2\x02", frame)
	if err != nil || len(rest) == 0 || rest[0] != 0 {
		t.Fatalf("not an unwrapped sz2 section (%v)", err)
	}
	p := rest[1:]
	_, n := binary.Uvarint(p) // radius
	p = p[n:]
	nBlocks := (count + sz2.BlockSize - 1) / sz2.BlockSize
	modes := p[:(nBlocks+3)/4]
	p = p[len(modes):]
	skipFloats := func() {
		k, n := binary.Uvarint(p)
		p = p[n+4*int(k):]
	}
	var streams [][]byte
	if slices.ContainsFunc(modes, func(m byte) bool { return m&0x55 != 0 }) { // a block mode 1, regression
		size, n := binary.Uvarint(p)
		streams = append(streams, p[n:n+int(size)])
		p = p[n+int(size):]
		skipFloats() // verbatim coefficients
	}
	skipFloats() // outliers
	return append(streams, p)
}

// TestSZ2StreamsMatchScalar decodes every Huffman stream of a
// MobileNetV2(1) update's sz2 sections (seed 42, the benchmark's
// relative bound 1e-2) through DecodeInto in random chunks against the
// per-symbol loop, then three truncated and three bit-flipped copies of
// each: the same symbols, and a failure at the same symbol with the
// same error class. Most element-code streams pass the multi-code
// table's gate, so this holds its path to the bit-serial decoder on the
// data the benchmark moves.
func TestSZ2StreamsMatchScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("compresses a 14 MB model")
	}
	rng := rand.New(rand.NewSource(42))
	c := sz2.New(sz2.WithLosslessStage(nil))
	multi := 0
	for _, e := range model.BuildStateDict(model.MobileNetV2(1), 42).Entries() {
		if e.DType != model.Float32 || !e.IsWeightNamed() || e.NumElements() <= 1000 {
			continue
		}
		frame, err := c.Compress(e.Tensor.Data(), lossy.RelBound(1e-2))
		if err != nil {
			t.Fatal(err)
		}
		for k, stream := range sz2Streams(t, frame) {
			name := e.Name + "/" + strconv.Itoa(k)
			if huffman.MultiOn(stream) {
				multi++
			}
			check := func(name string, buf []byte) {
				want, wantErr := huffman.DecodeScalar(buf)
				got, err := huffman.DecodeChunked(rng, buf, 300)
				if huffman.ErrClass(err) != huffman.ErrClass(wantErr) || !slices.Equal(got, want) {
					t.Fatalf("%s: DecodeInto gave %d symbols and %q, the scalar loop %d and %q",
						name, len(got), huffman.ErrClass(err), len(want), huffman.ErrClass(wantErr))
				}
			}
			check(name, stream)
			for range 3 {
				cut := len(stream)/2 + rng.Intn(len(stream)/2)
				check(name+" truncated", stream[:cut])
				flipped := slices.Clone(stream)
				flipped[cut] ^= 1 << rng.Intn(8)
				check(name+" flipped", flipped)
			}
		}
	}
	if multi < 20 {
		t.Fatalf("%d streams built the multi-code table, want 20 or more", multi)
	}
	t.Logf("%d streams built the multi-code table", multi)
}
