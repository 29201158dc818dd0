package huffman

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

// decode opens buf in a pooled Decoder and decodes every symbol into a
// fresh slice.
func decode(buf []byte) ([]int32, error) {
	d := AcquireDecoder()
	defer d.Release()
	if err := d.Open(buf); err != nil {
		return nil, err
	}
	return d.DecodeAll(nil)
}

func roundTrip(t *testing.T, symbols []int32) {
	t.Helper()
	buf, err := AppendEncode(nil, symbols)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(symbols) {
		t.Fatalf("length mismatch: got %d want %d", len(got), len(symbols))
	}
	for i := range symbols {
		if got[i] != symbols[i] {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], symbols[i])
		}
	}
}

func TestEmpty(t *testing.T) {
	roundTrip(t, nil)
}

func TestSingleSymbol(t *testing.T) {
	roundTrip(t, []int32{7, 7, 7, 7, 7})
}

func TestTwoSymbols(t *testing.T) {
	roundTrip(t, []int32{0, 1, 0, 0, 1, 1, 0})
}

// TestMaxSym: MaxSym reports the largest symbol of the opened table,
// whichever encoder wrote it, and -1 for an empty stream.
func TestMaxSym(t *testing.T) {
	symbols := []int32{3, 1000, 7, 3, 3, 65537}
	sparse, err := AppendEncode(nil, symbols)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := AppendEncodeAlphabet(nil, symbols, 65538)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := AppendEncode(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := AcquireDecoder()
	defer d.Release()
	for _, tc := range []struct {
		buf  []byte
		want int32
	}{{sparse, 65537}, {dense, 65537}, {empty, -1}} {
		if err := d.Open(tc.buf); err != nil {
			t.Fatal(err)
		}
		if got := d.MaxSym(); got != tc.want {
			t.Fatalf("MaxSym %d, want %d", got, tc.want)
		}
	}
}

func TestNegativeSymbolRejected(t *testing.T) {
	if _, err := AppendEncode(nil, []int32{1, -1}); err == nil {
		t.Fatal("expected error for negative symbol")
	}
	if _, err := AppendEncodeAlphabet(nil, []int32{1, -1}, 4); err == nil {
		t.Fatal("expected error for negative symbol under a stated alphabet")
	}
}

// TestSymbolOutsideAlphabetRejected: a symbol at or past the stated
// alphabet is an error on the dense and the sparse path, and a failed
// count leaves the pooled histogram clear for the next encode.
func TestSymbolOutsideAlphabetRejected(t *testing.T) {
	for _, alphabet := range []int{4, denseLimit + 1} {
		if _, err := AppendEncodeAlphabet(nil, []int32{1, 2, int32(alphabet)}, alphabet); err == nil {
			t.Fatalf("alphabet %d: expected error for symbol %d", alphabet, alphabet)
		}
	}
	symbols := []int32{0, 1, 2, 3, 3, 3}
	want, err := AppendEncode(nil, symbols)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendEncodeAlphabet(nil, symbols, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("encode after a rejected symbol differs")
	}
}

func TestSkewedDistribution(t *testing.T) {
	// Heavily skewed: mimics SZ quantization codes clustered at the
	// center of the radius.
	rng := rand.New(rand.NewSource(1))
	symbols := make([]int32, 20000)
	for i := range symbols {
		switch {
		case rng.Float64() < 0.85:
			symbols[i] = 32768
		case rng.Float64() < 0.9:
			symbols[i] = int32(32768 + rng.Intn(9) - 4)
		default:
			symbols[i] = int32(rng.Intn(65536))
		}
	}
	buf, err := AppendEncode(nil, symbols)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) >= len(symbols)*2 {
		t.Fatalf("no compression on skewed input: %d bytes for %d symbols", len(buf), len(symbols))
	}
	roundTrip(t, symbols)
}

func TestLargeSparseAlphabet(t *testing.T) {
	roundTrip(t, []int32{0, 1000000, 5, 1000000, 0, 42})
	// Past denseLimit the encoder counts through a map; the stream is the
	// one a dense table would give.
	wide := []int32{0, 1 << 25, 5, MaxSymbol, 0, 42, 1 << 25}
	if math.MaxInt == math.MaxInt32 {
		wide[3] = MaxSymbol - 1 // MaxSymbol's alphabet does not fit a 32-bit int
	}
	roundTrip(t, wide)
	got, err := AppendEncode(nil, wide)
	if err != nil {
		t.Fatal(err)
	}
	if want := refEncode(t, wide); !slices.Equal(got, want) {
		t.Fatal("sparse-path stream differs from the bit-writer reference")
	}
}

// TestAlphabetMustFitInt: an alphabet that does not fit an int is an
// error, never a panic. AppendEncodeAlphabet is handed one as the
// negative value it wraps to; AppendEncode derives MaxSymbol's alphabet,
// 2^31, which fits a 64-bit int and not a 32-bit one.
func TestAlphabetMustFitInt(t *testing.T) {
	syms := []int32{0, 1, MaxSymbol}
	for _, alphabet := range []int{-1, math.MinInt} {
		if _, err := AppendEncodeAlphabet(nil, syms, alphabet); err == nil {
			t.Errorf("alphabet %d: encoded without error", alphabet)
		}
	}
	_, err := AppendEncode(nil, syms)
	fits := math.MaxInt > math.MaxInt32
	if fits != (err == nil) {
		t.Errorf("MaxSymbol with %d-bit int: err = %v", strconv.IntSize, err)
	}
	if fits {
		roundTrip(t, syms)
	}
}

func TestExtremeSkewTriggersLengthLimit(t *testing.T) {
	// Fibonacci-like frequencies create degenerate (deep) trees; the
	// coder must flatten frequencies to honor MaxCodeLen.
	var symbols []int32
	f := 1
	for s := int32(0); s < 40; s++ {
		for i := 0; i < f && len(symbols) < 300000; i++ {
			symbols = append(symbols, s)
		}
		f = f + f/2 + 1
	}
	roundTrip(t, symbols)
}

func TestCorruptInput(t *testing.T) {
	if _, err := decode([]byte{0xff}); err == nil {
		t.Fatal("expected error for truncated header")
	}
	if _, err := decode(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	// Valid stream, truncated body.
	buf, err := AppendEncode(nil, []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(buf[:len(buf)-2]); err == nil {
		t.Fatal("expected error for truncated body")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, count uint16, spread uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count) % 2000
		alpha := int(spread)%500 + 1
		symbols := make([]int32, n)
		for i := range symbols {
			symbols[i] = int32(rng.Intn(alpha))
		}
		buf, err := AppendEncode(nil, symbols)
		if err != nil {
			return false
		}
		got, err := decode(buf)
		return err == nil && slices.Equal(got, symbols)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingDecoder: a pooled decoder is reusable across streams,
// Next yields the symbols one at a time, reading past the declared
// count fails, and DecodeAll appends into a reused buffer.
func TestStreamingDecoder(t *testing.T) {
	d := AcquireDecoder()
	defer d.Release()
	f := func(seed int64, count uint16, spread uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count) % 3000
		alpha := int(spread)%2000 + 1
		symbols := make([]int32, n)
		for i := range symbols {
			symbols[i] = int32(rng.Intn(alpha))
		}
		buf, err := AppendEncode(nil, symbols)
		if err != nil {
			return false
		}
		if err := d.Open(buf); err != nil || d.Count() != n {
			return false
		}
		for i := 0; i < n; i++ {
			s, err := d.Next()
			if err != nil || s != symbols[i] {
				return false
			}
		}
		if _, err := d.Next(); err == nil {
			return false // reading past the declared count must fail
		}
		if err := d.Open(buf); err != nil {
			return false
		}
		prefix := []int32{-1, -2}
		got, err := d.DecodeAll(append(make([]int32, 0, n+2), prefix...))
		return err == nil && slices.Equal(got[:2], prefix) && slices.Equal(got[2:], symbols)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendEncodeAfterPrefix: the append-style encoders leave a
// non-empty prefix alone and append the stream a fresh buffer gets.
func TestAppendEncodeAfterPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	symbols := make([]int32, 5000)
	for i := range symbols {
		symbols[i] = int32(rng.Intn(300))
	}
	want, err := AppendEncode(nil, symbols)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte{0xca, 0xfe}
	got, err := AppendEncode(slices.Clone(prefix), symbols)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
		t.Fatal("appended stream differs from the fresh one")
	}
	got, err = AppendEncodeAlphabet(slices.Clone(prefix), symbols, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got[len(prefix):], want) {
		t.Fatal("stated-alphabet stream differs")
	}
}

// TestAppendEncodeBytesMatchesEncode checks the byte-alphabet encoder
// against the int32 one over the widened tokens, and the byte decoder.
func TestAppendEncodeBytesMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tokens := make([]byte, 4000)
	syms := make([]int32, len(tokens))
	for i := range tokens {
		tokens[i] = byte(rng.Intn(200))
		syms[i] = int32(tokens[i])
	}
	want, err := AppendEncode(nil, syms)
	if err != nil {
		t.Fatal(err)
	}
	got := AppendEncodeBytes(nil, tokens)
	if !slices.Equal(got, want) {
		t.Fatalf("byte stream (%d B) differs from the int32 one (%d B)", len(got), len(want))
	}
	back := AcquireDecoder()
	defer back.Release()
	if err = back.Open(got); err != nil {
		t.Fatal(err)
	}
	dec, err := back.DecodeAllBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec, tokens) {
		t.Fatal("decoded tokens differ")
	}
}

// TestDecodeAllBytesRejectsWideSymbol: DecodeAllBytes rejects a stream
// whose table names a symbol past 255 before it decodes a token: one an
// int32 encoder wrote, and a forged table that names 300 while the body
// uses only 0 and 1, which DecodeAll decodes.
func TestDecodeAllBytesRejectsWideSymbol(t *testing.T) {
	syms := make([]int32, 1000)
	for i := range syms {
		syms[i] = int32(i % 7)
	}
	syms[700] = 256
	wide, err := AppendEncode(nil, syms)
	if err != nil {
		t.Fatal(err)
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, 8) // symbol count
	hdr = binary.AppendUvarint(hdr, 3) // table entries
	// Symbols 0, 1 and 300 as (delta, length) pairs: codes 0, 10, 11.
	for _, e := range [][2]uint64{{0, 1}, {1, 2}, {299, 2}} {
		hdr = binary.AppendUvarint(hdr, e[0])
		hdr = append(hdr, byte(e[1]))
	}
	forged := binary.AppendUvarint(nil, uint64(len(hdr)))
	forged = append(forged, hdr...)
	forged = append(forged, 0b0010_0010, 0) // 0 0 10 0 0 10 0 0: 0,0,1,0,0,1,0,0

	d := AcquireDecoder()
	defer d.Release()
	for _, tc := range []struct {
		name string
		buf  []byte
	}{{"wide", wide}, {"forged", forged}} {
		if err := d.Open(tc.buf); err != nil {
			t.Fatal(err)
		}
		got, err := d.DecodeAllBytes([]byte{9})
		if err == nil || !slices.Equal(got, []byte{9}) || d.remaining != d.Count() {
			t.Fatalf("%s: DecodeAllBytes gave %d bytes and %v, want the prefix alone and an error", tc.name, len(got), err)
		}
	}
	if err := d.Open(forged); err != nil {
		t.Fatal(err)
	}
	if got, err := d.DecodeAll(nil); err != nil || !slices.Equal(got, []int32{0, 0, 1, 0, 0, 1, 0, 0}) {
		t.Fatalf("forged: DecodeAll gave %v, %v", got, err)
	}
}

// TestCorruptTableDeltaOverflowRejected crafts a table whose second
// symbol delta wraps prev around uint64 (5 + (2^64-4) = 1): the decoder
// must reject it rather than accept an out-of-order table that breaks
// the canonical counting sort.
func TestCorruptTableDeltaOverflowRejected(t *testing.T) {
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, 2) // symbol count
	hdr = binary.AppendUvarint(hdr, 2) // table entries
	hdr = binary.AppendUvarint(hdr, 5) // symbol 5
	hdr = append(hdr, 1)
	hdr = binary.AppendUvarint(hdr, ^uint64(3)) // delta wrapping to symbol 1
	hdr = append(hdr, 1)
	buf := binary.AppendUvarint(nil, uint64(len(hdr)))
	buf = append(buf, hdr...)
	buf = append(buf, 0x40) // body: codes 0,1
	d := AcquireDecoder()
	defer d.Release()
	if err := d.Open(buf); err == nil {
		t.Fatal("expected Open error for delta-overflow table")
	}
}

// skewedCodes returns n seeded symbols geometric around 512 — the shape
// of sz2's quantization codes and of the benchmark's `layers` pass.
func skewedCodes(n int) []int32 {
	rng := rand.New(rand.NewSource(1))
	symbols := make([]int32, n)
	for i := range symbols {
		k := int32(rng.ExpFloat64() / 0.357) // geometric, ratio ≈ 0.7
		if rng.Intn(2) == 0 {
			k = -k
		}
		symbols[i] = 512 + k
	}
	return symbols
}

// sz2Codes returns n seeded symbols shaped like sz2's quantization
// codes on a MobileNetV2 update: the centre code 32769 (radius+1) about
// two times in three, so it gets a 1-bit code, and ±1 to ±20 around it
// geometrically: about 40 symbols averaging about 2.2 bits a code.
func sz2Codes(n int) []int32 {
	rng := rand.New(rand.NewSource(3))
	symbols := make([]int32, n)
	for i := range symbols {
		symbols[i] = 32769
		if rng.Intn(3) == 0 {
			k := 1 + min(int32(rng.ExpFloat64()/0.5), 19)
			if rng.Intn(2) == 0 {
				k = -k
			}
			symbols[i] += k
		}
	}
	return symbols
}

// lzTokens returns 1 MiB of LZ-token-shaped bytes: skewed literals and
// match lengths over the byte alphabet.
func lzTokens() []byte {
	rng := rand.New(rand.NewSource(2))
	tokens := make([]byte, 1<<20)
	for i := range tokens {
		tokens[i] = byte(min(255, int(rng.ExpFloat64()*24)))
	}
	return tokens
}

func BenchmarkEncodeCodes(b *testing.B) {
	symbols := skewedCodes(4 << 20)
	dst, err := AppendEncode(nil, symbols)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(symbols) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = AppendEncodeAlphabet(dst[:0], symbols, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeAlphabetStages splits AppendEncodeAlphabet, over sz2's
// 65 538-symbol alphabet, into the histogram and table build and the
// body: the two halves of the entropy row of sz2's
// BenchmarkCompressStages. The skewed rows move skewedCodes to sz2's
// centre code (radius+1) and average over 4 bits a code; the sz2Codes
// rows are shaped like sz2's codes on a MobileNetV2 update, about 2.2
// bits a code. The 4Mi rows are a large stream; the 1280 rows are a
// small section's (MobileNetV2(1)'s smallest lossy tensor), where the
// per-stream cost of the table shows.
func BenchmarkEncodeAlphabetStages(b *testing.B) {
	const alphabet = 2*32768 + 2
	skewed := func(n int) []int32 {
		symbols := skewedCodes(n)
		for i := range symbols {
			symbols[i] += 32769 - 512
		}
		return symbols
	}
	for _, shape := range []struct {
		name  string
		codes func(int) []int32
	}{{"skewed", skewed}, {"sz2Codes", sz2Codes}} {
		for _, n := range []struct {
			name  string
			codes int
		}{{"4Mi", 4 << 20}, {"1280", 1280}} {
			symbols := shape.codes(n.codes)
			name := shape.name + "/" + n.name
			e := new(encoder)
			dst, err := e.appendAlphabet(nil, symbols, alphabet)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/histogram+table", func(b *testing.B) {
				b.SetBytes(int64(len(symbols) * 4))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := e.countDense(symbols, alphabet); err != nil {
						b.Fatal(err)
					}
					dst = e.appendTable(dst[:0], len(symbols))
				}
			})
			lookup := e.denseCodes()
			b.Run(name+"/body", func(b *testing.B) {
				b.SetBytes(int64(len(symbols) * 4))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dst = appendCodes(dst[:0], symbols, lookup, e.maxLen)
				}
			})
		}
	}
}

// BenchmarkDecodeIntoCodes decodes 4Mi codes whole and, as sz2 does,
// 128 at a time. The skewed rows average over 4 bits per code, the sz2
// rows under 2 (sz2Codes), where most probes take whole entries of the
// multi-code table.
func BenchmarkDecodeIntoCodes(b *testing.B) {
	for _, shape := range []struct {
		name    string
		symbols []int32
	}{{"skewed", skewedCodes(4 << 20)}, {"sz2", sz2Codes(4 << 20)}} {
		buf, err := AppendEncode(nil, shape.symbols)
		if err != nil {
			b.Fatal(err)
		}
		for _, block := range []int{len(shape.symbols), 128} {
			name := shape.name + "/whole"
			if block == 128 {
				name = shape.name + "/block128"
			}
			b.Run(name, func(b *testing.B) {
				d := AcquireDecoder()
				defer d.Release()
				dst := make([]int32, len(shape.symbols))
				b.SetBytes(int64(len(dst) * 4))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := d.Open(buf); err != nil {
						b.Fatal(err)
					}
					for lo := 0; lo < len(dst); lo += block {
						if err := d.DecodeInto(dst[lo:min(lo+block, len(dst))]); err != nil {
							b.Fatal(err)
						}
					}
				}
				if !slices.Equal(dst, shape.symbols) {
					b.Fatal("decoded codes differ")
				}
			})
		}
	}
}

func BenchmarkEncodeTokens(b *testing.B) {
	tokens := lzTokens()
	dst := AppendEncodeBytes(nil, tokens)
	b.SetBytes(int64(len(tokens)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendEncodeBytes(dst[:0], tokens)
	}
}

func BenchmarkDecodeTokens(b *testing.B) {
	tokens := lzTokens()
	buf := AppendEncodeBytes(nil, tokens)
	d := AcquireDecoder()
	defer d.Release()
	dst := make([]byte, 0, len(tokens))
	b.SetBytes(int64(len(tokens)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Open(buf); err != nil {
			b.Fatal(err)
		}
		var err error
		if dst, err = d.DecodeAllBytes(dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
