package fedsz

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/dataset"
	"fedsz/internal/fl"
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
	loose, _, err := Compress(sd, WithRelBound(1e-1), WithCompressor("sz3"))
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
	if _, _, err := Compress(sd, WithRelBound(-1)); err == nil {
		t.Fatal("expected bound error")
	}
	// A checked frame carries a CRC32C trailer per section and decodes
	// with no matching option.
	checked, _, err := Compress(sd, WithRelBound(1e-4), WithChecksum())
	if err != nil {
		t.Fatal(err)
	}
	if len(checked) <= len(tight) {
		t.Fatalf("checked frame (%d) should be longer than the plain one (%d)", len(checked), len(tight))
	}
	if _, err := Decompress(checked); err != nil {
		t.Fatal(err)
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
func encodeUpdate(c Codec, sd *StateDict) ([]byte, fl.UpdateStats, error) {
	var buf bytes.Buffer
	st, err := c.EncodeTo(&buf, sd)
	return buf.Bytes(), st, err
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

func TestPublicBaselineCodecs(t *testing.T) {
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
	opts := []Option{WithCompressor("sz3"), WithRelBound(1e-2), WithChecksum()}
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

// TestPublicStreamingMarshal round-trips the streaming state-dict
// serializer through the public API.
func TestPublicStreamingMarshal(t *testing.T) {
	sd := BuildStateDict(MobileNetV2(16), 12)
	want, err := core.MarshalStateDict(sd)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := MarshalStateDictTo(&buf, sd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("streamed marshal diverges from core.MarshalStateDict")
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
