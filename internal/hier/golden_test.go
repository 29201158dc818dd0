package hier

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedsz/internal/lossless"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// largePartial spans several conversion chunks per entry (float64 and
// int64 alike, neither a multiple of the chunk), so a streaming
// encoder's chunk seams land inside the data the digest pins. Its sums
// are integer draws scaled by a power of two, exact on every
// architecture: math.Exp, say, rounds differently in amd64's assembly
// and in the pure Go other architectures run.
func largePartial() *orchestrator.Partial {
	rng := rand.New(rand.NewSource(41))
	p := &orchestrator.Partial{TotalWeight: 98765, Updates: 33, Prior: []byte("prior-blob")}
	for _, e := range []struct {
		name  string
		shape []int
	}{{"layer1.weight", []int{173, 131}}, {"layer1.bias", []int{131}}, {"layer2.weight", []int{8192 + 5, 3}}} {
		n := 1
		for _, d := range e.shape {
			n *= d
		}
		sums := make([]float64, n)
		for j := range sums {
			// A 53-bit signed mantissa times 2^-67 … 2^-37: magnitudes
			// from about 2^-15 to 2^15, as a sum of weighted updates spans.
			sums[j] = math.Ldexp(float64(rng.Int63n(1<<53)-(1<<52)), rng.Intn(31)-67)
		}
		p.Entries = append(p.Entries, orchestrator.PartialEntry{Name: e.name, DType: model.Float32, Shape: e.shape, Sums: sums})
	}
	ints := make([]int64, 2*8192+77)
	for j := range ints {
		ints[j] = rng.Int63() - (1 << 62)
	}
	p.Entries = append(p.Entries, orchestrator.PartialEntry{Name: "steps", DType: model.Int64, Ints: ints})
	return p
}

// goldenPartials are the pinned frames: every flag combination, the
// optional span tail, an Int64 entry, the empty region.
func goldenPartials() []struct {
	name string
	p    *orchestrator.Partial
	opts WireOptions
} {
	base := func() *orchestrator.Partial { return samplePartial(rand.New(rand.NewSource(29))) }
	floatsOnly := base()
	floatsOnly.Entries = floatsOnly.Entries[:3]
	spanned := base()
	spanned.Span = []byte{0xca, 0xfe, 0x00, 0x01, 0x02, 0x03}
	return []struct {
		name string
		p    *orchestrator.Partial
		opts WireOptions
	}{
		{"raw_crc", floatsOnly, WireOptions{Checksum: true}},
		{"raw_nocrc", floatsOnly, WireOptions{}},
		{"packed_crc", floatsOnly, WireOptions{Checksum: true, Lossless: lossless.NameBloscLZ}},
		{"span_crc", spanned, WireOptions{Checksum: true}},
		{"int64_crc", base(), WireOptions{Checksum: true}},
		{"empty_crc", &orchestrator.Partial{}, WireOptions{Checksum: true}},
		{"large_crc", largePartial(), WireOptions{Checksum: true}},
		{"large_packed", largePartial(), WireOptions{Lossless: lossless.NameBloscLZ}},
	}
}

// TestGoldenPartialFrames pins the MsgPartialSum wire format: the
// buffer encoder and the streaming writer must both emit the committed
// bytes (generated by the pre-streaming encoder), and the committed
// bytes must decode to the partial they were made from. The multi-chunk
// frames are pinned by SHA-256 so the repository does not carry them.
func TestGoldenPartialFrames(t *testing.T) {
	for _, g := range goldenPartials() {
		buf, err := EncodePartial(g.p, g.opts)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		var streamed bytes.Buffer
		if err := EncodePartialTo(&streamed, g.p, g.opts); err != nil {
			t.Fatalf("%s: stream encode: %v", g.name, err)
		}
		if !bytes.Equal(buf, streamed.Bytes()) {
			t.Fatalf("%s: EncodePartialTo diverged from EncodePartial", g.name)
		}

		pinned, path := buf, filepath.Join("testdata", "partial_"+g.name+".golden")
		if strings.HasPrefix(g.name, "large") {
			sum := sha256.Sum256(buf)
			pinned = []byte(hex.EncodeToString(sum[:]) + "\n")
			path = filepath.Join("testdata", "partial_"+g.name+".sha256")
		}
		if *updateGolden {
			if err := os.WriteFile(path, pinned, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden file missing (run with -update): %v", err)
		}
		if !bytes.Equal(pinned, want) {
			t.Fatalf("%s: frame diverged from golden wire format (%d bytes)", g.name, len(buf))
		}

		dec, err := DecodePartialFrom(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		partialsEqual(t, g.p, dec)
		if !bytes.Equal(dec.Span, g.p.Span) {
			t.Fatalf("%s: span tail %x != %x", g.name, dec.Span, g.p.Span)
		}
	}
}
