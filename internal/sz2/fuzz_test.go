package sz2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"fedsz/internal/huffman"
	"fedsz/internal/lossy"
	"fedsz/internal/quant"
)

// fuzzSeeds returns valid sz2 buffers with and without the lossless
// wrap: the fuzzer's starting points and the forged-count test's victim.
func fuzzSeeds(tb testing.TB) (wrapped, raw []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	data := make([]float32, 700)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	var err error
	if wrapped, err = New().Compress(data, lossy.RelBound(1e-2)); err != nil {
		tb.Fatal(err)
	}
	if raw, err = New(WithLosslessStage(nil)).Compress(data, lossy.RelBound(1e-2)); err != nil {
		tb.Fatal(err)
	}
	return wrapped, raw
}

// FuzzSZ2DecompressInto runs every input through DecompressInto with a
// dirty dst of an unrelated length: it must succeed exactly when
// Decompress on the scalar path does, with the same bits, and a count
// the header merely claims must never size the output. The seeds are v2
// sections with and without the wrap, each forgery of the raw one, and a
// v1 section.
func FuzzSZ2DecompressInto(f *testing.F) {
	wrapped, raw := fuzzSeeds(f)
	f.Add(wrapped, uint16(0))
	f.Add(raw, uint16(700))
	f.Add(raw[:len(raw)/2], uint16(3))
	f.Add([]byte(magic), uint16(1))
	for _, edit := range forgeries(splitRaw(f, raw)) {
		s := splitRaw(f, raw)
		s.modes = bytes.Clone(s.modes)
		edit(&s)
		f.Add(s.join(), uint16(700))
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "sz2v1_rel1e2.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1, uint16(100))
	f.Fuzz(func(t *testing.T, buf []byte, dstLen uint16) {
		c := New()
		saved := useAVX2
		useAVX2 = false
		want, wantErr := c.Decompress(buf)
		useAVX2 = saved
		dst := make([]float32, dstLen)
		for i := range dst {
			dst[i] = float32(math.NaN())
		}
		got, err := c.DecompressInto(dst, buf)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecompressInto error %v, Decompress error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("DecompressInto gave %d values, Decompress %d", len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("element %d: DecompressInto %v, Decompress %v", i, got[i], want[i])
			}
		}
		// Without the lossless wrap every symbol costs at least one bit
		// of buf itself, so no accepted count can exceed that.
		for _, m := range []string{magic, magicV1} {
			if _, _, rest, herr := lossy.ReadHeader(m, buf); herr == nil && len(rest) > 0 && rest[0] == 0 && len(got) > 8*len(buf) {
				t.Fatalf("%d values decoded out of %d bytes", len(got), len(buf))
			}
		}
	})
}

// sections is an unwrapped v2 sz2 frame split at its section borders,
// with the coefficient stream decoded to its codes.
type sections struct {
	head      []byte // frame header and stage flag
	radius    uint64
	modes     []byte
	hasCoefs  bool    // the coefficient stream and verbatim run are present
	coefCodes []int32 // two per regression block
	verbatim  []byte  // 4 bytes per value
	outliers  []byte
	entropy   []byte
}

func splitRaw(tb testing.TB, buf []byte) sections {
	tb.Helper()
	count, _, rest, err := lossy.ReadHeader(magic, buf)
	if err != nil || rest[0] != 0 {
		tb.Fatalf("not an unwrapped v2 frame: %v", err)
	}
	s := sections{head: buf[:len(buf)-len(rest)+1]}
	p := rest[1:]
	var n int
	s.radius, n = binary.Uvarint(p)
	p = p[n:]
	nBlocks := (count + BlockSize - 1) / BlockSize
	s.modes, p = p[:(nBlocks+3)/4], p[(nBlocks+3)/4:]
	for b := 0; b < nBlocks; b++ {
		s.hasCoefs = s.hasCoefs || s.modes[b/4]>>uint((b%4)*2)&3 == predRegress
	}
	values := func() []byte {
		k, n := binary.Uvarint(p)
		v := p[n : n+int(k)*4]
		p = p[n+int(k)*4:]
		return v
	}
	if s.hasCoefs {
		size, n := binary.Uvarint(p)
		dec := huffman.AcquireDecoder()
		defer dec.Release()
		if err := dec.Open(p[n : n+int(size)]); err != nil {
			tb.Fatal(err)
		}
		s.coefCodes = make([]int32, dec.Count())
		if err := dec.DecodeInto(s.coefCodes); err != nil {
			tb.Fatal(err)
		}
		p = p[n+int(size):]
		s.verbatim = values()
	}
	s.outliers = values()
	s.entropy = p
	return s
}

func (s sections) join() []byte {
	out := append([]byte(nil), s.head...)
	out = binary.AppendUvarint(out, s.radius)
	out = append(out, s.modes...)
	if s.hasCoefs {
		stream, err := huffman.AppendEncode(nil, s.coefCodes)
		if err != nil {
			panic(err)
		}
		out = binary.AppendUvarint(out, uint64(len(stream)))
		out = append(out, stream...)
		out = binary.AppendUvarint(out, uint64(len(s.verbatim)/4))
		out = append(out, s.verbatim...)
	}
	out = binary.AppendUvarint(out, uint64(len(s.outliers)/4))
	out = append(out, s.outliers...)
	return append(out, s.entropy...)
}

// forgeries are edits of a split section that the encoder never writes,
// each of which the decoder must reject: a radius outside
// [1, quant.MaxRadius] (2^63 wraps int) or below the element codes, a
// block mode past regression, the wrong number of coefficient codes,
// coefficients or outliers that no block uses, and a verbatim
// coefficient that is not there.
func forgeries(s sections) map[string]func(s *sections) {
	f := map[string]func(s *sections){
		"an outlier left over": func(s *sections) {
			s.outliers = append(bytes.Clone(s.outliers), 0, 0, 0x80, 0x3f)
		},
		"element codes past the radius": func(s *sections) { s.radius = 100 },
	}
	for _, r := range []uint64{0, quant.MaxRadius + 1, 1 << 40, 1 << 63} {
		f[fmt.Sprintf("radius %d", r)] = func(s *sections) { s.radius = r }
	}
	for _, mode := range []byte{2, 3} {
		f[fmt.Sprintf("block 5 mode %d", mode)] = func(s *sections) {
			s.modes[1] = s.modes[1]&^(3<<2) | mode<<2
		}
	}
	if !s.hasCoefs {
		return f
	}
	center := int32(coefRadius + 1) // the code of a coefficient equal to its prediction
	f["an odd coefficient count"] = func(s *sections) {
		s.coefCodes = append(slices.Clone(s.coefCodes), center)
	}
	f["three codes per regression block"] = func(s *sections) {
		s.coefCodes = append(slices.Clone(s.coefCodes), s.coefCodes[:len(s.coefCodes)/2]...)
	}
	f["two coefficient codes left over"] = func(s *sections) {
		s.coefCodes = append(slices.Clone(s.coefCodes), center, center)
	}
	f["a coefficient code past the radius"] = func(s *sections) {
		s.coefCodes = slices.Clone(s.coefCodes)
		s.coefCodes[0] = 2*coefRadius + 2
	}
	f["a verbatim coefficient left over"] = func(s *sections) {
		s.verbatim = append(bytes.Clone(s.verbatim), 0, 0, 0x80, 0x3f)
	}
	f["a verbatim coefficient underrun"] = func(s *sections) {
		s.coefCodes = slices.Clone(s.coefCodes)
		i := slices.IndexFunc(s.coefCodes, func(c int32) bool { return c != 0 })
		s.coefCodes[i] = 0
	}
	return f
}

// TestForgedSectionsRejected: the decoder refuses what the encoder
// never writes (see forgeries).
func TestForgedSectionsRejected(t *testing.T) {
	data := goldenData(3000)
	for _, c := range []*Compressor{New(WithLosslessStage(nil)), New(WithLosslessStage(nil), WithoutRegression())} {
		buf, err := c.Compress(data, lossy.RelBound(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		s := splitRaw(t, buf)
		if !bytes.Equal(s.join(), buf) {
			t.Fatal("split/join does not reproduce the frame")
		}
		if s.hasCoefs == c.noRegression {
			t.Fatalf("coefficient section present %v with regression disabled %v", s.hasCoefs, c.noRegression)
		}
		if _, err := c.Decompress(buf); err != nil {
			t.Fatal(err)
		}
		for name, edit := range forgeries(s) {
			f := splitRaw(t, buf)
			f.modes = bytes.Clone(f.modes)
			edit(&f)
			if _, err := c.Decompress(f.join()); !errors.Is(err, lossy.ErrCorrupt) {
				t.Errorf("%s: decoded with error %v, want lossy.ErrCorrupt", name, err)
			}
		}
	}
}

// TestDecompressIntoForgedCount: a header that claims 2^31−1 elements
// (a count that fits int on every architecture) over a 700-element
// payload is rejected before dst grows, whatever dst is.
func TestDecompressIntoForgedCount(t *testing.T) {
	_, raw := fuzzSeeds(t)
	_, eb, rest, err := lossy.ReadHeader(magic, raw)
	if err != nil {
		t.Fatal(err)
	}
	forged := append(lossy.WriteHeader(magic, math.MaxInt32, eb), rest...)
	for _, dst := range [][]float32{nil, make([]float32, 16)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := New().DecompressInto(dst, forged)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("forged count decoded")
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("forged count allocated %d B for a %d B input", got, len(forged))
		}
	}
}
