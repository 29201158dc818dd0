package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"fedsz/internal/lossless"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
)

// rawLossy is a registry-test compressor: varint count + raw
// little-endian floats (zero error).
type rawLossy struct{}

func (rawLossy) Name() string { return "test-raw" }

func (rawLossy) Compress(data []float32, p lossy.Params) ([]byte, error) {
	out := binary.AppendUvarint([]byte("TRAW"), uint64(len(data)))
	for _, v := range data {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out, nil
}

func (rawLossy) Decompress(buf []byte) ([]float32, error) {
	if len(buf) < 4 || string(buf[:4]) != "TRAW" {
		return nil, errors.New("test-raw: bad magic")
	}
	buf = buf[4:]
	n, k := binary.Uvarint(buf)
	if k <= 0 || n > uint64(len(buf[k:]))/4 {
		return nil, errors.New("test-raw: truncated")
	}
	buf = buf[k:]
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return out, nil
}

// storeLossless is a passthrough lossless codec for the registry test.
type storeLossless struct{}

func (storeLossless) Name() string { return "test-store" }

func (s storeLossless) Compress(src []byte) ([]byte, error) { return s.AppendCompress(nil, src) }

func (storeLossless) AppendCompress(dst, src []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	return append(dst, src...), nil
}

func (storeLossless) Decompress(src []byte) ([]byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 || uint64(len(src[k:])) < n {
		return nil, errors.New("test-store: truncated")
	}
	return append([]byte(nil), src[k:k+int(n)]...), nil
}

// The registry is process-global, so register the test codecs exactly
// once even when the test re-runs in-process (go test -count=2).
var (
	registerTestCodecs sync.Once
	testLossyErr       error
	testLosslessErr    error
)

// TestPluggedCodecsRoundTrip plugs a custom lossy compressor and
// lossless codec in through the registries and runs them through the
// full pipeline — including decode, which resolves them from the names
// recorded in the self-describing frame.
func TestPluggedCodecsRoundTrip(t *testing.T) {
	raw := lossy.Family{Name: "test-raw", Bounded: true, New: func() lossy.Compressor { return rawLossy{} }}
	registerTestCodecs.Do(func() {
		testLossyErr = lossy.RegisterFamily(raw)
		testLosslessErr = lossless.Register("test-store", func() lossless.Codec { return storeLossless{} })
	})
	if testLossyErr != nil {
		t.Fatal(testLossyErr)
	}
	if testLosslessErr != nil {
		t.Fatal(testLosslessErr)
	}
	// Duplicates are rejected.
	if err := lossy.RegisterFamily(raw); err == nil {
		t.Fatal("duplicate lossy registration accepted")
	}
	if err := lossless.Register("test-store", func() lossless.Codec { return storeLossless{} }); err == nil {
		t.Fatal("duplicate lossless registration accepted")
	}
	if !slices.Contains(lossy.Families(), "test-raw") || !slices.Contains(lossless.Names(), "test-store") {
		t.Fatalf("registered names missing from listings: %v / %v", lossy.Families(), lossless.Names())
	}

	sd := model.BuildStateDict(model.MobileNetV2(16), 2)
	p, err := NewPipeline(Config{Lossy: "test-raw", Lossless: "test-store"})
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if _, err := p.CompressTo(&stream, sd); err != nil {
		t.Fatal(err)
	}
	got, err := DecompressFrom(&stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The raw test codec is exact: the round trip must be bit-perfect.
	gotEntries := got.Entries()
	for i, e := range sd.Entries() {
		g := gotEntries[i]
		if g.Name != e.Name {
			t.Fatalf("entry %d: %q != %q", i, g.Name, e.Name)
		}
		if e.DType != model.Float32 {
			continue
		}
		for j, v := range e.Tensor.Data() {
			if g.Tensor.Data()[j] != v {
				t.Fatalf("entry %q[%d] not exact through custom codecs", e.Name, j)
			}
		}
	}
}
