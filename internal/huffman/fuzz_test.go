package huffman

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fedsz/internal/bitstream"
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

// fuzzPairs reads FuzzHuffmanEncode's histogram: records of a
// little-endian uint16 symbol and a uvarint count, merged by symbol,
// each total capped at 2^40 and zero counts dropped, in symbol order.
func fuzzPairs(data []byte) []symFreq {
	var counts [1 << 16]uint64
	for len(data) >= 3 {
		c, k := binary.Uvarint(data[2:])
		if k <= 0 {
			break
		}
		s := binary.LittleEndian.Uint16(data)
		counts[s] = min(counts[s]+min(c, 1<<40), 1<<40)
		data = data[2+k:]
	}
	var pairs []symFreq
	for s, c := range counts {
		if c > 0 {
			pairs = append(pairs, symFreq{sym: int32(s), freq: int64(c)})
		}
	}
	return pairs
}

// fuzzStream expands pairs into a stream holding each symbol as often
// as its count, or reports false past maxTotal symbols. The runs are
// spread by a stride permutation, so that codes of different lengths
// meet inside the body loop's steps.
func fuzzStream(pairs []symFreq, maxTotal int) ([]int32, bool) {
	var symbols []int32
	for _, p := range pairs {
		if p.freq > int64(maxTotal-len(symbols)) {
			return nil, false
		}
		for range p.freq {
			symbols = append(symbols, p.sym)
		}
	}
	n := len(symbols)
	stride := 1_000_003
	if n%stride == 0 {
		stride = 999_983
	}
	spread := make([]int32, n)
	for i, s := range symbols {
		spread[int64(i)*int64(stride)%int64(n)] = s
	}
	return spread, true
}

// fuzzRecords is fuzzPairs's input for symbols base, base+1, … with
// the given counts.
func fuzzRecords(base int, counts []uint64) []byte {
	var data []byte
	for i, c := range counts {
		data = binary.LittleEndian.AppendUint16(data, uint16(base+i))
		data = binary.AppendUvarint(data, c)
	}
	return data
}

// FuzzHuffmanEncode checks the word encoders against the bit-writer
// reference (refEncode) on a fuzz-chosen histogram, appending to a
// random prefix with random spare capacity: the output must be the
// prefix, untouched, then exactly the reference's bytes.
//
// Where the histogram's stream is at most 2^22 symbols, the stream goes
// through AppendEncodeAlphabet under a fuzz-chosen alphabet (dense, or
// sparse past denseLimit), AppendEncode and, as each symbol's low byte,
// AppendEncodeBytes. The histogram's code then also codes the body
// bytes (each picks a code by index, as int32 and as byte symbols)
// through appendCodes, so long codes can be as common as short ones
// there, which no optimal code's own stream makes them. The seeds put
// the longest code in each of the body loop's classes (four, three, two
// and one code a step), up to MaxCodeLen.
func FuzzHuffmanEncode(f *testing.F) {
	fib := func(n int) []uint64 {
		counts := make([]uint64, n)
		a, b := uint64(1), uint64(1)
		for i := range counts {
			counts[i], a, b = a, b, a+b
		}
		return counts
	}
	body := make([]byte, 300)
	for i := range body {
		body[i] = byte(i * 7)
	}
	e := new(encoder)
	for _, seed := range []struct {
		counts   []uint64
		maxLen   uint8
		alphabet uint32
		prefix   int
		spare    uint16
	}{
		{[]uint64{5, 3, 2, 1, 40}, 4, 2*32768 + 2, 0, 0},
		{fib(12), 11, 2*32768 + 2, 7, 3},
		{fib(17), 16, 2*32768 + 2, 1, 100},
		{fib(19), 18, 1<<21 - 1, 0, 9}, // sparse: past denseLimit
		{fib(22), 21, 2*32768 + 2, 13, 0},
		{fib(29), 28, 2*32768 + 2, 2, 8},
		{fib(31), MaxCodeLen, 2*32768 + 2, 5, 1},
	} {
		data := fuzzRecords(32769-len(seed.counts)/2, seed.counts)
		e.pairs = fuzzPairs(data)
		e.appendTable(nil, 0)
		if e.maxLen != seed.maxLen {
			f.Fatalf("seed of %d symbols: longest code %d bits, want %d", len(seed.counts), e.maxLen, seed.maxLen)
		}
		prefix := make([]byte, seed.prefix)
		for i := range prefix {
			prefix[i] = byte(i*37 + 1)
		}
		f.Add(data, body, seed.alphabet, prefix, seed.spare)
	}
	f.Add([]byte{}, []byte{}, uint32(1), []byte{9}, uint16(0))

	f.Fuzz(func(t *testing.T, data, body []byte, alphabet uint32, prefix []byte, spare uint16) {
		if len(prefix) > 256 || len(body) > 1<<12 {
			return
		}
		dst := func() []byte {
			d := make([]byte, len(prefix), len(prefix)+int(spare))
			copy(d, prefix)
			return d
		}
		check := func(name string, out []byte, err error, want []byte) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(out) != len(prefix)+len(want) {
				t.Fatalf("%s: %d bytes after the prefix, the reference %d", name, len(out)-len(prefix), len(want))
			}
			if !slices.Equal(out[:len(prefix)], prefix) {
				t.Fatalf("%s: prefix overwritten", name)
			}
			if !slices.Equal(out[len(prefix):], want) {
				t.Fatalf("%s: body differs from the bit-writer reference", name)
			}
		}
		pairs := fuzzPairs(data)

		if symbols, ok := fuzzStream(pairs, 1<<22); ok {
			a := 1 + int(alphabet%(2*denseLimit))
			tokens := make([]byte, len(symbols))
			wide := make([]int32, len(symbols))
			for i, s := range symbols {
				symbols[i] = s % int32(min(a, 1<<16))
				tokens[i] = byte(s)
				wide[i] = int32(tokens[i])
			}
			want := refEncode(t, symbols)
			out, err := AppendEncodeAlphabet(dst(), symbols, a)
			check("AppendEncodeAlphabet", out, err, want)
			// With exactly the room appendTable asks for, nothing grows.
			exact := append(make([]byte, 0, len(prefix)+len(want)+bodySlack), prefix...)
			out, err = AppendEncodeAlphabet(exact, symbols, a)
			check("AppendEncodeAlphabet, exact room", out, err, want)
			if &out[:1][0] != &exact[:1][0] {
				t.Fatal("AppendEncodeAlphabet grew a buffer with room for the body and bodySlack")
			}
			out, err = AppendEncode(dst(), symbols)
			check("AppendEncode", out, err, want)
			check("AppendEncodeBytes", AppendEncodeBytes(dst(), tokens), nil, refEncode(t, wide))
		}

		total := int64(0)
		for _, p := range pairs {
			total += p.freq
		}
		if len(pairs) == 0 || total > math.MaxInt/MaxCodeLen {
			return // appendTable sizes the body in an int
		}
		e := &encoder{pairs: pairs}
		hdr := e.appendTable(nil, len(body))
		var w bitstream.Writer
		w.ResetBuf(slices.Clone(hdr))
		idx := make([]int32, len(body)) // symbol i is pair i
		bits := 0
		for i, b := range body {
			idx[i] = int32(int(b) % len(pairs))
			c := e.codes[idx[i]]
			w.WriteBits(c.code(), c.len())
			bits += int(c.len())
		}
		want := w.Bytes()
		grown := func() []byte { return slices.Grow(append(dst(), hdr...), (bits+7)/8+bodySlack) }
		check("appendCodes int32", appendCodes(grown(), idx, e.codes, e.maxLen), nil, want)
		if len(pairs) <= 256 {
			small := make([]byte, len(idx))
			for i, p := range idx {
				small[i] = byte(p)
			}
			check("appendCodes byte", appendCodes(grown(), small, e.codes, e.maxLen), nil, want)
		}
	})
}
