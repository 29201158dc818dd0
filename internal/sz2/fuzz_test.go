package sz2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fedsz/internal/lossy"
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
// Decompress does, with the same bits, and a count the header merely
// claims must never size the output.
func FuzzSZ2DecompressInto(f *testing.F) {
	wrapped, raw := fuzzSeeds(f)
	f.Add(wrapped, uint16(0))
	f.Add(raw, uint16(700))
	f.Add(raw[:len(raw)/2], uint16(3))
	f.Add([]byte(magic), uint16(1))
	f.Fuzz(func(t *testing.T, buf []byte, dstLen uint16) {
		c := New()
		want, wantErr := c.Decompress(buf)
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
		if _, _, rest, herr := lossy.ReadHeader(magic, buf); herr == nil && len(rest) > 0 && rest[0] == 0 && len(got) > 8*len(buf) {
			t.Fatalf("%d values decoded out of %d bytes", len(got), len(buf))
		}
	})
}

// sections is an unwrapped sz2 frame split at its section borders.
type sections struct {
	head             []byte // frame header and stage flag
	radius           uint64
	modes            []byte
	coeffs, outliers []byte // 4 bytes per value
	entropy          []byte
}

func splitRaw(t *testing.T, buf []byte) sections {
	t.Helper()
	count, _, rest, err := lossy.ReadHeader(magic, buf)
	if err != nil || rest[0] != 0 {
		t.Fatalf("not an unwrapped frame: %v", err)
	}
	s := sections{head: buf[:len(buf)-len(rest)+1]}
	p := rest[1:]
	var n int
	s.radius, n = binary.Uvarint(p)
	p = p[n:]
	s.modes, p = p[:((count+BlockSize-1)/BlockSize+3)/4], p[((count+BlockSize-1)/BlockSize+3)/4:]
	values := func() []byte {
		k, n := binary.Uvarint(p)
		v := p[n : n+int(k)*4]
		p = p[n+int(k)*4:]
		return v
	}
	s.coeffs = values()
	s.outliers = values()
	s.entropy = p
	return s
}

func (s sections) join() []byte {
	out := append([]byte(nil), s.head...)
	out = binary.AppendUvarint(out, s.radius)
	out = append(out, s.modes...)
	out = binary.AppendUvarint(out, uint64(len(s.coeffs)/4))
	out = append(out, s.coeffs...)
	out = binary.AppendUvarint(out, uint64(len(s.outliers)/4))
	out = append(out, s.outliers...)
	return append(out, s.entropy...)
}

// TestForgedSectionsRejected: the decoder refuses what the encoder
// never writes — a block mode past regression, and coefficients or
// outliers that no block uses.
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
		if _, err := c.Decompress(buf); err != nil {
			t.Fatal(err)
		}
		forge := func(name string, edit func(s *sections)) {
			f := splitRaw(t, buf)
			f.modes = bytes.Clone(f.modes)
			edit(&f)
			if _, err := c.Decompress(f.join()); !errors.Is(err, lossy.ErrCorrupt) {
				t.Errorf("%s: decoded with error %v, want lossy.ErrCorrupt", name, err)
			}
		}
		for _, mode := range []byte{2, 3} {
			forge(fmt.Sprintf("block 5 mode %d", mode), func(s *sections) {
				s.modes[1] = s.modes[1]&^(3<<2) | mode<<2
			})
		}
		forge("two coefficients left over", func(s *sections) {
			s.coeffs = append(bytes.Clone(s.coeffs), 0, 0, 0x80, 0x3f, 0, 0, 0, 0)
		})
		forge("an outlier left over", func(s *sections) {
			s.outliers = append(bytes.Clone(s.outliers), 0, 0, 0x80, 0x3f)
		})
	}
}

// TestDecompressIntoForgedCount: a header that claims 2^39 elements over
// a 700-element payload is rejected before dst grows, whatever dst is.
func TestDecompressIntoForgedCount(t *testing.T) {
	_, raw := fuzzSeeds(t)
	_, eb, rest, err := lossy.ReadHeader(magic, raw)
	if err != nil {
		t.Fatal(err)
	}
	forged := append(lossy.WriteHeader(magic, 1<<39, eb), rest...)
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
