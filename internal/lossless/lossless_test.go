package lossless

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func allCodecs(t *testing.T) []Codec {
	t.Helper()
	var out []Codec
	for _, name := range Names() {
		c, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("codec %q reports name %q", name, c.Name())
		}
		out = append(out, c)
	}
	return out
}

// corpora returns test inputs with different statistics.
func corpora() map[string][]byte {
	rng := rand.New(rand.NewSource(42))

	repetitive := bytes.Repeat([]byte("federated learning with lossy compression "), 500)

	random := make([]byte, 32*1024)
	rng.Read(random)

	// Float32 data with clustered exponents — the shape of FL metadata.
	floats := make([]byte, 0, 16*1024)
	for i := 0; i < 4*1024; i++ {
		v := float32(rng.NormFloat64() * 0.05)
		floats = binary.LittleEndian.AppendUint32(floats, math.Float32bits(v))
	}

	return map[string][]byte{
		"empty":      {},
		"tiny":       []byte("ab"),
		"repetitive": repetitive,
		"random":     random,
		"floats":     floats,
		"zeros":      make([]byte, 8192),
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	for _, want := range []string{NameBloscLZ, NameZlib, NameGzip, NameZstdLike, NameXzLike} {
		if !slices.Contains(Names(), want) {
			t.Fatalf("Names() = %v missing the built-in %q", Names(), want)
		}
	}
	for _, c := range allCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			for name, data := range corpora() {
				comp, err := c.Compress(data)
				if err != nil {
					t.Fatalf("%s compress %s: %v", c.Name(), name, err)
				}
				got, err := c.Decompress(comp)
				if err != nil {
					t.Fatalf("%s decompress %s: %v", c.Name(), name, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s round trip mismatch on %s: got %d bytes want %d",
						c.Name(), name, len(got), len(data))
				}
			}
		})
	}
}

func TestCompressesRepetitiveData(t *testing.T) {
	data := corpora()["repetitive"]
	for _, c := range allCodecs(t) {
		comp, err := c.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(comp) >= len(data)/4 {
			t.Errorf("%s: ratio %.2f too low on repetitive data",
				c.Name(), float64(len(data))/float64(len(comp)))
		}
	}
}

func TestBloscShuffleHelpsFloats(t *testing.T) {
	// The byte-shuffle filter is what makes blosc effective on float
	// arrays: shuffled compression must beat unshuffled on float data.
	data := corpora()["floats"]
	shuffled := NewBloscLZ(4)
	plain := NewBloscLZ(1)
	cs, err := shuffled.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := plain.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) >= len(cp) {
		t.Fatalf("shuffle did not help: shuffled=%d plain=%d", len(cs), len(cp))
	}
}

func TestShuffleRoundTrip(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	s := shuffle(data, 4)
	want := []byte{1, 5, 9, 2, 6, 10, 3, 7, 11, 4, 8, 12}
	if !bytes.Equal(s, want) {
		t.Fatalf("shuffle = %v, want %v", s, want)
	}
	if got := unshuffle(s, 4); !bytes.Equal(got, data) {
		t.Fatalf("unshuffle = %v", got)
	}
	// Non-multiple lengths pass through unchanged.
	odd := []byte{1, 2, 3}
	if !bytes.Equal(shuffle(odd, 4), odd) {
		t.Fatal("shuffle should pass through non-multiple input")
	}
}

func TestXzBeatsOrMatchesZstdOnRatio(t *testing.T) {
	data := bytes.Repeat(corpora()["floats"], 4)
	z, _ := New(NameZstdLike)
	x, _ := New(NameXzLike)
	cz, err := z.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	cx, err := x.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cx) > len(cz)+len(cz)/20 {
		t.Fatalf("xzlike (%d) should not be materially worse than zstdlike (%d)", len(cx), len(cz))
	}
}

func TestUnknownCodec(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Fatal("expected error for unknown codec")
	}
}

func TestCorruptInputs(t *testing.T) {
	for _, c := range allCodecs(t) {
		if _, err := c.Decompress([]byte{0xff, 0xfe, 0xfd}); err == nil {
			t.Errorf("%s: expected error on garbage input", c.Name())
		}
	}
}

func TestLZTokenStreamCorruption(t *testing.T) {
	// Match distance pointing before the start of output must error.
	stream := []byte{0x80, 0x10, 0x00} // match len 4 dist 17 at position 0
	if _, err := lzDecompress(nil, stream, 4, false); err == nil {
		t.Fatal("expected error for out-of-range distance")
	}
	// Truncated literal run.
	if _, err := lzDecompress(nil, []byte{0x05, 'a'}, 6, false); err == nil {
		t.Fatal("expected error for truncated literals")
	}
	// Wrong declared length.
	if _, err := lzDecompress(nil, []byte{0x00, 'a'}, 2, false); err == nil {
		t.Fatal("expected error for length mismatch")
	}
}

func TestQuickRoundTripBloscAndLZH(t *testing.T) {
	blosc, _ := New(NameBloscLZ)
	zstd, _ := New(NameZstdLike)
	f := func(seed int64, size uint16, runBias uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size) % 4096
		data := make([]byte, n)
		// Mix random bytes with runs to exercise both token paths.
		i := 0
		for i < n {
			if rng.Intn(256) < int(runBias) {
				run := rng.Intn(64) + 4
				b := byte(rng.Intn(4))
				for j := 0; j < run && i < n; j++ {
					data[i] = b
					i++
				}
			} else {
				data[i] = byte(rng.Intn(256))
				i++
			}
		}
		for _, c := range []Codec{blosc, zstd} {
			comp, err := c.Compress(data)
			if err != nil {
				return false
			}
			got, err := c.Decompress(comp)
			if err != nil || !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCodecs(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 0, 1<<20)
	for i := 0; i < 1<<18; i++ {
		v := float32(rng.NormFloat64() * 0.05)
		data = binary.LittleEndian.AppendUint32(data, math.Float32bits(v))
	}
	for _, name := range Names() {
		c, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Compress(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
