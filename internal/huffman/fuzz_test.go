package huffman

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzHuffmanDecode drives the streaming decoder with arbitrary bytes
// (CI runs it for 10s per PR): it must never panic or over-allocate,
// and DecodeInto in chunks must agree with the per-symbol scalar loop
// on every stream — the same symbols, and on a bad stream a failure at
// the same symbol with the same error class.
func FuzzHuffmanDecode(f *testing.F) {
	// Seed corpus: valid streams of each encoder shape plus structural
	// mutations of them.
	rng := rand.New(rand.NewSource(9))
	skew := make([]int32, 4000)
	for i := range skew {
		skew[i] = int32(rng.NormFloat64()*4) + 32768
	}
	valid, err := AppendEncode(nil, skew)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// sz2-shaped codes past the multi-code table's gate, whole, cut
	// mid-body and with a flipped bit.
	sz2, err := AppendEncode(nil, sz2Codes(multiMinCount+100))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sz2)
	f.Add(slices.Clone(sz2[:len(sz2)*2/3]))
	flipped := slices.Clone(sz2)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	tokens := make([]byte, 1000)
	rng.Read(tokens)
	f.Add(AppendEncodeBytes(nil, tokens))
	single, _ := AppendEncode(nil, []int32{5, 5, 5})
	f.Add(single)
	empty, _ := AppendEncode(nil, nil)
	f.Add(empty)
	trunc := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(trunc)
	mangled := append([]byte(nil), valid...)
	mangled[0] ^= 0xff
	f.Add(mangled)
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x00, 0x01, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound per-exec work; structure, not size, is under test
		}
		want, wantErr := decodeScalar(data)
		got, gotErr := decodeChunked(rand.New(rand.NewSource(int64(len(data)))), data, 64)
		if errClass(gotErr) != errClass(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("DecodeInto gave %d symbols and %q, the scalar loop %d and %q",
				len(got), errClass(gotErr), len(want), errClass(wantErr))
		}
		if gotErr != nil {
			return
		}
		// Accepted streams must re-encode losslessly (not byte-identical:
		// the original may carry a non-canonical but valid table).
		re, err := AppendEncode(nil, got)
		if err != nil {
			t.Fatalf("re-encode of decoded symbols failed: %v", err)
		}
		back, err := decode(re)
		if err != nil {
			t.Fatalf("decode of re-encoded stream failed: %v", err)
		}
		if !slices.Equal(back, want) {
			t.Fatal("re-encode round trip diverged")
		}
	})
}
