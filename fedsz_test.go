package fedsz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"fedsz/internal/dataset"
	"fedsz/internal/model"
)

func TestPublicCompressDecompress(t *testing.T) {
	sd := BuildStateDict(MobileNetV2(8), 42)
	buf, stats, err := Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ratio() < 2 {
		t.Fatalf("default ratio %.2f too low", stats.Ratio())
	}
	got, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != sd.Len() {
		t.Fatalf("entry count %d != %d", got.Len(), sd.Len())
	}
	// Metadata (non-weight) entries survive bit-exact.
	for _, e := range sd.Entries() {
		if e.IsWeightNamed() && e.NumElements() > DefaultThreshold {
			continue
		}
		ge, ok := got.Get(e.Name)
		if !ok {
			t.Fatalf("missing %q", e.Name)
		}
		if e.DType == model.Float32 {
			for i, v := range e.Tensor.Data() {
				if ge.Tensor.Data()[i] != v {
					t.Fatalf("metadata entry %q not exact", e.Name)
				}
			}
		}
	}
}

func TestPublicOptions(t *testing.T) {
	sd := BuildStateDict(MobileNetV2(16), 1)
	loose, _, err := Compress(sd, WithRelBound(1e-1), WithCompressor("sz3"), WithLossless("zstdlike"))
	if err != nil {
		t.Fatal(err)
	}
	tight, _, err := Compress(sd, WithRelBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if len(loose) >= len(tight) {
		t.Fatalf("1e-1 (%d) should be smaller than 1e-4 (%d)", len(loose), len(tight))
	}
	if _, _, err := Compress(sd, WithCompressor("nope")); err == nil {
		t.Fatal("expected unknown-compressor error")
	}
	if _, _, err := Compress(sd, WithAbsBound(-1)); err == nil {
		t.Fatal("expected bound error")
	}
	if _, _, err := Compress(sd, WithThreshold(-2)); err == nil {
		t.Fatal("expected threshold error")
	}
	// WithParallelism never changes the bitstream, only wall-clock.
	serial, _, err := Compress(sd, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, _, err := Compress(sd, WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(wide) || string(serial) != string(wide) {
		t.Fatal("bitstream differs across parallelism levels")
	}
	if _, _, err := Compress(sd, WithParallelism(-1)); err == nil {
		t.Fatal("expected parallelism error")
	}
}

func TestPublicCodec(t *testing.T) {
	codec, err := NewCodec(WithRelBound(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	sd := BuildStateDict(MobileNetV2(16), 9)
	buf, st, err := encodeUpdate(codec, sd)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ratio() < 2 {
		t.Fatalf("codec ratio %.2f", st.Ratio())
	}
	if _, err := codec.DecodeFrom(bytes.NewReader(buf)); err != nil {
		t.Fatal(err)
	}
}

// encodeUpdate runs c.EncodeTo into memory, returning the update's
// bytes.
func encodeUpdate(c Codec, sd *StateDict) ([]byte, UpdateStats, error) {
	var buf bytes.Buffer
	st, err := c.EncodeTo(&buf, sd)
	return buf.Bytes(), st, err
}

func TestPublicMarshal(t *testing.T) {
	sd := BuildStateDict(MobileNetV2(16), 3)
	blob, err := MarshalStateDict(sd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalStateDict(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumElements() != sd.NumElements() {
		t.Fatal("marshal round trip")
	}
}

func TestPublicListings(t *testing.T) {
	// The registry may carry test-registered extras; the built-in
	// suites must always be present.
	for _, want := range []string{"sz2", "sz3", "szx", "zfp"} {
		if !contains(Compressors(), want) {
			t.Fatalf("compressors missing %q: %v", want, Compressors())
		}
	}
	if contains(Compressors(), "szx-artifact") {
		t.Fatalf("variant leaked into listing: %v", Compressors())
	}
	for _, want := range []string{"blosclz", "gzip", "xzlike", "zlib", "zstdlike"} {
		if !contains(LosslessCodecs(), want) {
			t.Fatalf("lossless missing %q: %v", want, LosslessCodecs())
		}
	}
	if len(Datasets()) != 3 {
		t.Fatalf("datasets: %v", Datasets())
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestPublicArchBuilders(t *testing.T) {
	if AlexNet(1).NumParams() != 61100840 {
		t.Fatal("alexnet params")
	}
	if ResNet50(1).NumParams() != 25557032 {
		t.Fatal("resnet50 params")
	}
	if MobileNetV2(1).NumParams() != 3504872 {
		t.Fatal("mobilenetv2 params")
	}
}

func TestPublicDecision(t *testing.T) {
	d := Decision{
		OriginalBytes:   14e6,
		CompressedBytes: 2e6,
		BandwidthBps:    Mbps(10),
	}
	if !d.ShouldCompress() {
		t.Fatal("compression should win at 10 Mbps")
	}
	if TransferTime(10e6, Mbps(10)).Seconds() != 8 {
		t.Fatal("transfer time")
	}
}

func TestPublicRunSim(t *testing.T) {
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSim(SimConfig{
		Clients:          2,
		Rounds:           2,
		SamplesPerClient: 30,
		TestSamples:      50,
		Codec:            codec,
		Link:             Link{BandwidthBps: Mbps(10)},
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatal("rounds")
	}
	if math.IsNaN(res.FinalAccuracy()) {
		t.Fatal("accuracy NaN")
	}
}

func TestPublicBaselineAndDeltaCodecs(t *testing.T) {
	// The paper's §III-C baselines are families in the one registry:
	// a codec selects them by name like any compressor.
	sd := BuildStateDict(MobileNetV2(16), 4)
	for _, name := range []string{"topk", "qsgd"} {
		codec, err := NewCodec(WithCompressor(name), WithRelBound(1e-2))
		if err != nil {
			t.Fatal(err)
		}
		buf, _, err := encodeUpdate(codec, sd)
		if err != nil {
			t.Fatal(err)
		}
		got, err := codec.DecodeFrom(bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != sd.Len() {
			t.Fatalf("%s: %d entries, want %d", name, got.Len(), sd.Len())
		}
	}

	inner, err := NewCodec(WithRelBound(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	delta := NewDeltaCodec(inner)
	res, err := RunSim(SimConfig{
		Clients:          2,
		Rounds:           2,
		SamplesPerClient: 30,
		TestSamples:      50,
		Codec:            delta,
		Seed:             8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatal("delta sim rounds")
	}
}

// TestBaselineCodecTrainsInFederation checks that a federation whose
// clients upload through the topk baseline family still trains above
// chance.
func TestBaselineCodecTrainsInFederation(t *testing.T) {
	topk, err := NewCodec(WithCompressor("topk"), WithRelBound(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSim(SimConfig{
		Dataset:          dataset.FashionMNIST(),
		Clients:          2,
		Rounds:           3,
		SamplesPerClient: 60,
		TestSamples:      100,
		Codec:            topk,
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy() <= 0.15 {
		t.Fatalf("topk federation accuracy %.3f did not beat chance", res.FinalAccuracy())
	}
}

// TestPublicEncoderDecoder checks the streaming API end to end: the
// Encoder's buffer output is byte-identical to Compress with the same
// options, multiple frames share one stream, and the Decoder returns
// io.EOF at exhaustion.
func TestPublicEncoderDecoder(t *testing.T) {
	sd := BuildStateDict(MobileNetV2(16), 6)
	opts := []Option{WithCompressor("sz3"), WithRelBound(1e-2), WithLossless("zstdlike")}
	want, _, err := Compress(sd, opts...)
	if err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	enc, err := NewEncoder(&stream, opts...)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := enc.Encode(sd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), want) {
		t.Fatalf("encoder output diverges from Compress (%d vs %d bytes)", stream.Len(), len(want))
	}
	if stats.CompressedBytes != int64(len(want)) {
		t.Fatalf("stats.CompressedBytes %d != %d", stats.CompressedBytes, len(want))
	}
	if _, err := enc.Encode(sd); err != nil { // second frame on the same stream
		t.Fatal(err)
	}

	dec := NewDecoder(&stream)
	for frame := 0; frame < 2; frame++ {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		if got.Len() != sd.Len() {
			t.Fatalf("frame %d: %d entries, want %d", frame, got.Len(), sd.Len())
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("exhausted stream: got %v, want io.EOF", err)
	}
}

// rawLossy is a registry-test compressor built purely on the public
// surface: varint count + raw little-endian floats (zero error).
type rawLossy struct{}

func (rawLossy) Name() string { return "test-raw" }

func (rawLossy) Compress(data []float32, p LossyParams) ([]byte, error) {
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

// TestPublicRegistry plugs a custom lossy compressor and lossless
// codec in through the public registry and runs them through the full
// pipeline — including decode, which resolves them from the names
// recorded in the self-describing frame.
func TestPublicRegistry(t *testing.T) {
	registerTestCodecs.Do(func() {
		testLossyErr = RegisterFamily(SingleFamily("test-raw", true, func() LossyCompressor { return rawLossy{} }))
		testLosslessErr = RegisterLossless("test-store", func() LosslessCodec { return storeLossless{} })
	})
	if testLossyErr != nil {
		t.Fatal(testLossyErr)
	}
	if testLosslessErr != nil {
		t.Fatal(testLosslessErr)
	}
	// Duplicates are rejected.
	if err := RegisterFamily(SingleFamily("test-raw", true, func() LossyCompressor { return rawLossy{} })); err == nil {
		t.Fatal("duplicate lossy registration accepted")
	}
	if err := RegisterLossless("test-store", func() LosslessCodec { return storeLossless{} }); err == nil {
		t.Fatal("duplicate lossless registration accepted")
	}
	if !contains(Compressors(), "test-raw") || !contains(LosslessCodecs(), "test-store") {
		t.Fatalf("registered names missing from listings: %v / %v", Compressors(), LosslessCodecs())
	}

	sd := BuildStateDict(MobileNetV2(16), 2)
	var stream bytes.Buffer
	enc, err := NewEncoder(&stream, WithCompressor("test-raw"), WithLossless("test-store"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encode(sd); err != nil {
		t.Fatal(err)
	}
	got, err := NewDecoder(&stream).Decode()
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

// TestPublicStreamingMarshal round-trips the streaming state-dict
// serializer through the public API.
func TestPublicStreamingMarshal(t *testing.T) {
	sd := BuildStateDict(MobileNetV2(16), 12)
	want, err := MarshalStateDict(sd)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := MarshalStateDictTo(&buf, sd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("streamed marshal diverges from MarshalStateDict")
	}
	got, err := UnmarshalStateDictFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumElements() != sd.NumElements() {
		t.Fatal("streaming marshal round trip")
	}
}

// TestPublicPipelinedDecision sanity-checks the Eqn. 1 pipelined
// extension: overlap can only help, and with many chunks the
// compressed path approaches max(tC, tT) + tD.
func TestPublicPipelinedDecision(t *testing.T) {
	d := Decision{
		CompressTime:    2 * time.Second,
		OriginalBytes:   100e6,
		CompressedBytes: 25e6,
		BandwidthBps:    Mbps(100),
	}
	whole := d.CompressedPathTime()
	piped := d.PipelinedTime(100)
	if piped >= whole {
		t.Fatalf("pipelined %v should beat whole-buffer %v", piped, whole)
	}
	if d.PipelinedTime(1) != whole {
		t.Fatal("single chunk must degenerate to the whole-buffer path")
	}
	// 25e6 bytes at 100 Mbps = 2s transfer; overlapped with 2s of tC
	// the 100-chunk path sits just above 2s — and far below the 4s sum.
	if piped > 2*time.Second+3*whole/100 {
		t.Fatalf("pipelined %v not close to bottleneck stage", piped)
	}
}
