package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"fedsz/internal/bitstream"
)

// refEncode is the bit-at-a-time reference for the word encoders: it
// counts through a map, builds the table with the package's tree code
// and writes every code through bitstream.Writer.WriteBits.
func refEncode(t testing.TB, symbols []int32) []byte {
	t.Helper()
	freq := make(map[int32]int64)
	for _, s := range symbols {
		freq[s]++
	}
	e := new(encoder)
	for s, c := range freq {
		e.pairs = append(e.pairs, symFreq{sym: s, freq: c})
	}
	slices.SortFunc(e.pairs, func(a, b symFreq) int { return cmp.Compare(a.sym, b.sym) })
	dst := e.appendTable(nil, len(symbols))
	codes := make(map[int32]symCode, len(e.pairs))
	for i, p := range e.pairs {
		codes[p.sym] = e.codes[i]
	}
	var w bitstream.Writer
	w.ResetBuf(dst)
	for _, s := range symbols {
		c := codes[s]
		w.WriteBits(c.code(), c.len())
	}
	return w.Bytes()
}

// scalarDecoder is the per-symbol reference for DecodeInto: an opened
// Decoder's tables driven one symbol at a time through
// bitstream.Reader's Peek, Skip and ReadBit.
type scalarDecoder struct {
	d         Decoder
	br        bitstream.Reader
	remaining int
}

func openScalar(buf []byte) (*scalarDecoder, error) {
	r := new(scalarDecoder)
	if err := r.d.Open(buf); err != nil {
		return nil, err
	}
	r.remaining = r.d.count
	r.br.Reset(r.d.buf)
	return r, nil
}

func (r *scalarDecoder) next() (int32, error) {
	if r.remaining <= 0 {
		return 0, errExhausted
	}
	r.remaining--
	if e := r.d.fast[r.br.Peek(fastBits)]; e.len > 0 {
		if err := r.br.Skip(uint(e.len)); err != nil {
			return 0, err
		}
		return e.sym, nil
	}
	code := uint32(0)
	for l := 1; l <= r.d.maxLen; l++ {
		b, err := r.br.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
		if r.d.countLen[l] == 0 {
			continue
		}
		if diff := int64(code) - int64(r.d.firstCode[l]); diff >= 0 && diff < int64(r.d.countLen[l]) {
			return r.d.syms[r.d.offset[l]+int32(diff)], nil
		}
	}
	return 0, errCorrupt
}

// decodeScalar decodes buf a symbol at a time until the declared count
// or the first error: the symbols before it and the error.
func decodeScalar(buf []byte) ([]int32, error) {
	r, err := openScalar(buf)
	if err != nil {
		return nil, err
	}
	var out []int32
	for r.remaining > 0 {
		s, err := r.next()
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	if _, err := r.next(); !errors.Is(err, errExhausted) {
		return out, errors.New("scalar: read past the declared count")
	}
	return out, nil
}

// decodeChunked decodes buf through DecodeInto in chunks of 1 to
// maxChunk symbols (the last may ask for more than remain) until the
// declared count or the first error: the symbols before it and the
// error. Chunk ends fall anywhere, so mid-entry of the multi-code
// table too. Half the chunks have spare capacity, filled with a
// sentinel that DecodeInto must leave alone.
func decodeChunked(rng *rand.Rand, buf []byte, maxChunk int) ([]int32, error) {
	const sentinel = -7
	d := AcquireDecoder()
	defer d.Release()
	if err := d.Open(buf); err != nil {
		return nil, err
	}
	var out []int32
	for d.remaining > 0 {
		n := 1 + rng.Intn(maxChunk)
		chunk := make([]int32, n, n+rng.Intn(2)*(1+rng.Intn(2*multiCodes)))
		spare := chunk[n:cap(chunk)]
		for i := range spare {
			spare[i] = sentinel
		}
		before := d.remaining
		err := d.DecodeInto(chunk)
		if slices.ContainsFunc(spare, func(s int32) bool { return s != sentinel }) {
			return out, errors.New("DecodeInto wrote past len(dst)")
		}
		switch {
		case err == nil:
			out = append(out, chunk...)
		case errors.Is(err, errExhausted) && len(chunk) > before && d.remaining == 0:
			out = append(out, chunk[:before]...)
		default:
			return append(out, chunk[:before-d.remaining-1]...), err
		}
	}
	if err := d.DecodeInto(make([]int32, 1)); !errors.Is(err, errExhausted) {
		return out, errors.New("DecodeInto read past the declared count")
	}
	return out, nil
}

func errClass(err error) string {
	for _, c := range []struct {
		err  error
		name string
	}{{errCorrupt, "corrupt"}, {bitstream.ErrOverrun, "overrun"}, {errExhausted, "exhausted"}} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	if err != nil {
		return err.Error()
	}
	return "ok"
}

// checkDecoders decodes buf both ways and fails unless they return the
// same symbols and fail at the same index with the same error class.
func checkDecoders(t *testing.T, rng *rand.Rand, name string, buf []byte) {
	t.Helper()
	want, wantErr := decodeScalar(buf)
	got, err := decodeChunked(rng, buf, 300)
	if errClass(err) != errClass(wantErr) || !slices.Equal(got, want) {
		t.Fatalf("%s: DecodeInto gave %d symbols and %q, the scalar loop %d and %q",
			name, len(got), errClass(err), len(want), errClass(wantErr))
	}
}

// fibonacci returns the symbols 0..n-1 with Fibonacci frequencies
// (1, 1, 2, 3, …) in seeded order: the deepest Huffman tree n symbols
// allow, n-1 levels.
func fibonacci(rng *rand.Rand, n int) []int32 {
	var symbols []int32
	a, b := 1, 1
	for s := int32(0); s < int32(n); s++ {
		for i := 0; i < a; i++ {
			symbols = append(symbols, s)
		}
		a, b = b, a+b
	}
	rng.Shuffle(len(symbols), func(i, j int) { symbols[i], symbols[j] = symbols[j], symbols[i] })
	return symbols
}

// TestWordLoopsMatchScalar is the property test for the word loops:
// over alphabets from 1 to 2^16 symbols, Fibonacci-skewed streams with
// codes longer than fastBits, and the byte alphabet, the encoders give
// the bit-writer reference's bytes, DecodeInto in random chunks gives
// the per-symbol loop's symbols, and on every truncation of the body
// both fail at the same symbol with the same error class.
func TestWordLoopsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	type stream struct {
		name    string
		symbols []int32
	}
	var streams []stream
	for _, alphabet := range []int{1, 2, 3, 17, 256, 1000, 4096, 1 << 16} {
		uniform := make([]int32, 1+rng.Intn(1200))
		for i := range uniform {
			uniform[i] = int32(rng.Intn(alphabet))
		}
		skewed := make([]int32, 1+rng.Intn(1200))
		for i := range skewed {
			k := int(rng.ExpFloat64() * 3)
			if rng.Intn(2) == 0 {
				k = -k
			}
			skewed[i] = int32(min(max(alphabet/2+k, 0), alphabet-1))
		}
		streams = append(streams,
			stream{"uniform" + strconv.Itoa(alphabet), uniform},
			stream{"skewed" + strconv.Itoa(alphabet), skewed})
	}
	streams = append(streams, stream{"fibonacci16", fibonacci(rng, 16)})

	for _, s := range streams {
		dense, err := AppendEncodeAlphabet(nil, s.symbols, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := AppendEncode(nil, s.symbols)
		if err != nil {
			t.Fatal(err)
		}
		want := refEncode(t, s.symbols)
		if !slices.Equal(dense, want) || !slices.Equal(scanned, want) {
			t.Fatalf("%s: word encoder differs from the bit-writer reference", s.name)
		}
		if s.name == "fibonacci16" {
			d := AcquireDecoder()
			if err := d.Open(dense); err != nil || d.maxLen <= fastBits {
				t.Fatalf("%s: longest code %d bits (%v), want > %d", s.name, d.maxLen, err, fastBits)
			}
			d.Release()
		}
		checkDecoders(t, rng, s.name, dense)
		for l := bodyStart(t, dense); l < len(dense); l++ {
			checkDecoders(t, rng, s.name+" truncated", dense[:l])
		}
	}

	for _, alphabet := range []int{1, 2, 200, 256} {
		tokens := make([]byte, 1+rng.Intn(3000))
		wide := make([]int32, len(tokens))
		for i := range tokens {
			tokens[i] = byte(min(alphabet-1, int(rng.ExpFloat64()*20)))
			wide[i] = int32(tokens[i])
		}
		buf := AppendEncodeBytes(nil, tokens)
		if !slices.Equal(buf, refEncode(t, wide)) {
			t.Fatalf("bytes%d: word encoder differs from the bit-writer reference", alphabet)
		}
		checkDecoders(t, rng, "bytes"+strconv.Itoa(alphabet), buf)
		d := AcquireDecoder()
		if err := d.Open(buf); err != nil {
			t.Fatal(err)
		}
		got, err := d.DecodeAllBytes(nil)
		d.Release()
		if err != nil || !slices.Equal(got, tokens) {
			t.Fatalf("bytes%d: DecodeAllBytes lost tokens (%v)", alphabet, err)
		}
	}
}

// TestMaxCodeLenStream drives 30-bit codes through both loops. Fibonacci
// frequencies over 31 symbols build a 30-level tree that needs no
// flattening; a stream that really had them would hold 3.5 M symbols,
// so the table is built from the frequencies alone and the body codes
// 600 symbols drawn uniformly, which makes the long codes common and
// every truncation cheap.
func TestMaxCodeLenStream(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	e := new(encoder)
	a, b := int64(1), int64(1)
	for s := int32(0); s < 31; s++ {
		e.pairs = append(e.pairs, symFreq{sym: s, freq: a})
		a, b = b, a+b
	}
	symbols := make([]int32, 600)
	for i := range symbols {
		symbols[i] = int32(rng.Intn(31))
	}
	hdr := e.appendTable(nil, len(symbols))
	if got := slices.Max(e.lens); got != MaxCodeLen {
		t.Fatalf("longest code %d bits, want %d", got, MaxCodeLen)
	}
	var w bitstream.Writer
	w.ResetBuf(slices.Clone(hdr))
	for _, s := range symbols {
		w.WriteBits(e.codes[s].code(), e.codes[s].len())
	}
	buf := appendCodes(hdr, symbols, e.codes, e.maxLen) // symbol s is pair s
	if !slices.Equal(buf, w.Bytes()) {
		t.Fatal("word encoder differs from the bit-writer reference")
	}
	checkDecoders(t, rng, "fibonacci31", buf)
	for l := bodyStart(t, buf); l < len(buf); l++ {
		checkDecoders(t, rng, "fibonacci31 truncated", buf[:l])
	}
}

// bodyStart returns the offset of a stream's body: past the header
// length and the header.
func bodyStart(t *testing.T, buf []byte) int {
	hdrLen, n := binary.Uvarint(buf)
	if n <= 0 {
		t.Fatal("bad header length")
	}
	return n + int(hdrLen)
}

// fullScanEncode is AppendEncodeAlphabet as it collected the present
// symbols before the scan went eight slots per step: one slot at a
// time over the whole alphabet.
func fullScanEncode(symbols []int32, alphabet int) ([]byte, error) {
	freqs := make([]uint32, alphabet)
	for _, s := range symbols {
		if uint(s) >= uint(alphabet) {
			return nil, symbolError(s, alphabet)
		}
		freqs[s]++
	}
	e := new(encoder)
	for s, c := range freqs {
		if c > 0 {
			e.pairs = append(e.pairs, symFreq{sym: int32(s), freq: int64(c)})
		}
	}
	dst := e.appendTable(nil, len(symbols))
	return appendCodes(dst, symbols, e.denseCodes(), e.maxLen), nil
}

// TestAlphabetScanGrouped: collecting the present symbols eight slots
// per step over the counted span [lowest, highest] must give a
// slot-by-slot scan's bytes and errors, and leave the encoder's table
// all-zero, at both ends of the alphabet, in a last group shorter than
// eight, for spans that start or end inside a group and for an error
// at the first symbol or after both ends were counted. One encoder
// serves every case, so a slot left dirty would also corrupt the next
// stream.
func TestAlphabetScanGrouped(t *testing.T) {
	skewed := skewedCodes(20000)
	for i := range skewed {
		skewed[i] += 32769 - 512 // around sz2's centre code
	}
	e := new(encoder)
	// sz2's alphabet ends in a group of two; 13 in one of five.
	for _, alphabet := range []int32{2*32768 + 2, 13, 8} {
		cases := []struct {
			name    string
			symbols []int32
		}{
			{"empty", nil},
			{"only_0", []int32{0, 0, 0}},
			{"only_top", []int32{alphabet - 1, alphabet - 1}},
			{"single", []int32{alphabet / 2}},
			{"both_ends", []int32{0, alphabet - 1, 5, 0}},
			{"skewed", skewed},
			{"out_of_range_mid_stream", []int32{5, 6, alphabet, 7}},
			{"negative_mid_stream", []int32{alphabet - 1, 3, -1, 7}},
			{"after_error", []int32{7, 7, 6}},
			{"span_inside_groups", []int32{alphabet/2 + 1, alphabet - 2, 1, alphabet/2 + 1}},
			{"single_at_top", []int32{alphabet - 1}},
			{"out_of_range_first", []int32{alphabet, 0, 1}},
			{"negative_first", []int32{-1, alphabet - 1}},
			{"error_after_both_ends", []int32{0, alphabet - 1, 3, alphabet + 1}},
			{"after_errors", []int32{2, 3}},
		}
		for _, tc := range cases {
			want, wantErr := fullScanEncode(tc.symbols, int(alphabet))
			got, err := e.appendAlphabet(nil, tc.symbols, int(alphabet))
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%d/%s: error %v, full scan %v", alphabet, tc.name, err, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d/%s: %d bytes differ from the full scan's %d", alphabet, tc.name, len(got), len(want))
			}
			if i := slices.IndexFunc(e.freqs[:cap(e.freqs)], func(c uint32) bool { return c != 0 }); i >= 0 {
				t.Fatalf("%d/%s: table slot %d left at %d", alphabet, tc.name, i, e.freqs[i])
			}
		}
	}
}
