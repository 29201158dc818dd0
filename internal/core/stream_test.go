package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"fedsz/internal/lossless"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

// streamStateDict builds a deterministic dict with both frame sections
// populated and enough tensors to exercise pipelined section writes.
func streamStateDict(t testing.TB, seed int64) *model.StateDict {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sd := model.NewStateDict()
	add := func(e model.Entry) {
		if err := sd.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(n int) *tensor.Tensor {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rng.NormFloat64()) * 0.05
		}
		tt, err := tensor.FromData(data, n)
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	for i, n := range []int{1500, 2048, 1201, 4096} {
		add(model.Entry{Name: sprintfName("conv%d.weight", i), DType: model.Float32, Tensor: mk(n)})
		add(model.Entry{Name: sprintfName("bn%d.bias", i), DType: model.Float32, Tensor: mk(16)})
	}
	add(model.Entry{Name: "head.num_batches_tracked", DType: model.Int64, Ints: []int64{99, -3}})
	return sd
}

// TestCompressToMatchesCompress is the acceptance criterion for the
// streaming encoder: writing to a buffer must produce bitstreams
// byte-identical to Compress for every lossy×lossless combination.
func TestCompressToMatchesCompress(t *testing.T) {
	sd := streamStateDict(t, 11)
	for _, lossyName := range suiteNames {
		for _, losslessName := range lossless.Names() {
			p, err := NewPipeline(Config{
				Lossy:    lossyName,
				Lossless: losslessName,
				Bound:    lossy.RelBound(1e-2),
			})
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt, err := p.Compress(sd)
			if err != nil {
				t.Fatalf("%s/%s: compress: %v", lossyName, losslessName, err)
			}
			var buf bytes.Buffer
			gotSt, err := p.CompressTo(&buf, sd)
			if err != nil {
				t.Fatalf("%s/%s: compressTo: %v", lossyName, losslessName, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s/%s: streamed frame diverged (%d vs %d bytes)",
					lossyName, losslessName, buf.Len(), len(want))
			}
			if gotSt.CompressedBytes != wantSt.CompressedBytes ||
				gotSt.OriginalBytes != wantSt.OriginalBytes ||
				gotSt.LossyOutBytes != wantSt.LossyOutBytes ||
				gotSt.MetaOutBytes != wantSt.MetaOutBytes ||
				gotSt.NumLossyTensors != wantSt.NumLossyTensors {
				t.Fatalf("%s/%s: stats diverged: %+v vs %+v", lossyName, losslessName, gotSt, wantSt)
			}
			// And the streamed frame decodes identically through both
			// readers.
			fromBuf, err := Decompress(want)
			if err != nil {
				t.Fatal(err)
			}
			fromStream, err := DecompressFrom(bytes.NewReader(buf.Bytes()), 0)
			if err != nil {
				t.Fatalf("%s/%s: decompressFrom: %v", lossyName, losslessName, err)
			}
			assertDictsEqual(t, fromBuf, fromStream, 0)
		}
	}
}

// TestCompressToParallelismIdentity pins the streaming encoder's
// determinism: any worker count, same bytes.
func TestCompressToParallelismIdentity(t *testing.T) {
	sd := streamStateDict(t, 5)
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		p, err := NewPipeline(Config{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := p.CompressTo(&buf, sd); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("parallelism %d changed the streamed bitstream", workers)
		}
	}
}

// TestMultiFrameStream checks that frames are self-delimiting on a
// shared stream: two frames plus trailing protocol bytes decode in
// sequence, and exhaustion returns io.EOF.
func TestMultiFrameStream(t *testing.T) {
	p, err := NewPipeline(Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	sd1 := streamStateDict(t, 1)
	sd2 := streamStateDict(t, 2)
	var buf bytes.Buffer
	if _, err := p.CompressTo(&buf, sd1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CompressTo(&buf, sd2); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xAB) // trailing non-frame byte must survive untouched

	br := bufio.NewReader(&buf)
	got1, err := DecompressFrom(br, 0)
	if err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	got2, err := DecompressFrom(br, 0)
	if err != nil {
		t.Fatalf("frame 2: %v", err)
	}
	assertDictsEqual(t, got1, mustDecompress(t, p, sd1), 0)
	assertDictsEqual(t, got2, mustDecompress(t, p, sd2), 0)
	if b, err := br.ReadByte(); err != nil || b != 0xAB {
		t.Fatalf("trailing byte consumed by decoder: %v %v", b, err)
	}
	if _, err := DecompressFrom(br, 0); err != io.EOF {
		t.Fatalf("exhausted stream: got %v, want io.EOF", err)
	}
}

// TestStreamDecoderRejectsOversizedHeaders forges headers whose
// declared counts and lengths exceed the streaming caps; the decoder
// must reject them without allocating anything near the claimed size.
func TestStreamDecoderRejectsOversizedHeaders(t *testing.T) {
	header := func() []byte {
		b := append([]byte(pipelineMagic), formatVersion)
		b = appendString(b, "sz2")
		b = appendString(b, "blosclz")
		b = binary.AppendUvarint(b, 1000) // threshold
		return b
	}

	// Entry count beyond maxStreamEntries.
	big := binary.AppendUvarint(header(), maxStreamEntries+1)
	if _, err := DecompressFrom(bytes.NewReader(big), 1); err == nil {
		t.Fatal("oversized entry count accepted")
	}

	// A name field longer than maxStreamString.
	b := binary.AppendUvarint(header(), 1) // one entry
	b = append(b, 0x01)                    // tag: lossy
	b = binary.AppendUvarint(b, 1)         // one lossy tensor
	b = binary.AppendUvarint(b, maxStreamString+1)
	if _, err := DecompressFrom(bytes.NewReader(b), 1); err == nil {
		t.Fatal("oversized name accepted")
	}

	// A section length beyond maxStreamSection.
	b = binary.AppendUvarint(header(), 1)
	b = append(b, 0x01)
	b = binary.AppendUvarint(b, 1)
	b = appendString(b, "w.weight")
	b = binary.AppendUvarint(b, 1)                  // ndims
	b = binary.AppendUvarint(b, 10)                 // dim
	b = binary.AppendUvarint(b, maxStreamSection+1) // payload length
	if _, err := DecompressFrom(bytes.NewReader(b), 1); err == nil {
		t.Fatal("oversized section accepted")
	}

	// A shape whose dimension product wraps the int conversion: the
	// per-dim and running-product caps must reject it before
	// tensor.FromData can recompute (and accept) the same wrap.
	b = binary.AppendUvarint(header(), 1)
	b = append(b, 0x01)
	b = binary.AppendUvarint(b, 1)
	b = appendString(b, "w.weight")
	b = binary.AppendUvarint(b, 2)              // ndims
	b = binary.AppendUvarint(b, maxStreamElems) // dim 0: at the cap
	b = binary.AppendUvarint(b, maxStreamElems) // dim 1: product overflows
	b = binary.AppendUvarint(b, 0)              // empty payload
	if _, err := DecompressFrom(bytes.NewReader(b), 1); err == nil {
		t.Fatal("wrapping shape accepted")
	}

	// The same forged shape through the streamed state-dict parser.
	f := []byte(serializeMagic)
	f = binary.AppendUvarint(f, 1) // one entry
	f = appendString(f, "w.weight")
	f = append(f, byte(model.Float32))
	f = binary.AppendUvarint(f, 2)
	f = binary.AppendUvarint(f, maxStreamElems)
	f = binary.AppendUvarint(f, maxStreamElems)
	if _, err := UnmarshalStateDictFrom(bytes.NewReader(f)); err == nil {
		t.Fatal("wrapping state-dict shape accepted")
	}

	// A plausible section length on a truncated stream: must fail with
	// ErrUnexpectedEOF semantics, not hang or over-allocate.
	b = binary.AppendUvarint(header(), 1)
	b = append(b, 0x01)
	b = binary.AppendUvarint(b, 1)
	b = appendString(b, "w.weight")
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 10)
	b = binary.AppendUvarint(b, 1<<29) // 512 MiB claimed, zero present
	if _, err := DecompressFrom(bytes.NewReader(b), 1); err == nil {
		t.Fatal("truncated huge section accepted")
	}
}

// TestStreamDecoderTruncations replays a valid frame cut at assorted
// boundaries through the streaming reader: every prefix must error
// (or, for the empty prefix, return io.EOF) without panicking.
func TestStreamDecoderTruncations(t *testing.T) {
	p, err := NewPipeline(Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.CompressTo(&buf, streamStateDict(t, 3)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	cuts := []int{0, 1, 4, 5, 9, 16, len(valid) / 4, len(valid) / 2, len(valid) - 1}
	for _, cut := range cuts {
		sd, err := DecompressFrom(bytes.NewReader(valid[:cut]), 1)
		if err == nil {
			t.Fatalf("truncation at %d decoded successfully (%v)", cut, sd)
		}
		if cut == 0 && err != io.EOF {
			t.Fatalf("empty stream: got %v, want io.EOF", err)
		}
	}
}

// TestMarshalStateDictToIdentity pins the streaming serializer to the
// whole-buffer one, and the streaming parser to both.
func TestMarshalStateDictToIdentity(t *testing.T) {
	sd := streamStateDict(t, 7)
	want, err := MarshalStateDict(sd)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := MarshalStateDictTo(&buf, sd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("streamed marshal diverged (%d vs %d bytes)", buf.Len(), len(want))
	}
	got, err := UnmarshalStateDictFrom(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	assertDictsEqual(t, sd, got, 0)
	if _, err := UnmarshalStateDictFrom(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

// TestWholeBufferShortInputsAreCorrupt: the whole-buffer decoders read
// through the stream decoders, whose empty stream is io.EOF. A buffer
// that is empty, shorter than a magic or cut anywhere inside is a
// corrupt frame or dict to them: ErrCorrupt, never io.EOF, never (nil,
// nil).
func TestWholeBufferShortInputsAreCorrupt(t *testing.T) {
	sd := streamStateDict(t, 3)
	p, err := NewPipeline(Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := p.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MarshalStateDict(sd)
	if err != nil {
		t.Fatal(err)
	}
	decoders := []struct {
		name   string
		valid  []byte
		decode func([]byte) (*model.StateDict, error)
	}{
		{"Decompress", frame, Decompress},
		{"UnmarshalStateDict", plain, UnmarshalStateDict},
	}
	for _, d := range decoders {
		cuts := []int{0, 1, 2, 3, 4, len(d.valid) / 2, len(d.valid) - 1}
		for cut := 5; cut < len(d.valid); cut += 1 + cut/8 {
			cuts = append(cuts, cut)
		}
		for _, cut := range cuts {
			got, err := d.decode(d.valid[:cut])
			if !errors.Is(err, ErrCorrupt) || errors.Is(err, io.EOF) || got != nil {
				t.Fatalf("%s of %d of %d bytes: (%v, %v), want (nil, ErrCorrupt) and not io.EOF",
					d.name, cut, len(d.valid), dictLen(got), err)
			}
		}
		if _, err := d.decode(d.valid); err != nil {
			t.Fatalf("%s of the whole input: %v", d.name, err)
		}
	}
}

// TestEmptyMetadataIsCorrupt: a frame whose lossless section inflates
// to no bytes at all holds no FSD1 dict, and the stream decoder's empty
// stream (io.EOF) must not leak out of the frame decoder as a clean end.
func TestEmptyMetadataIsCorrupt(t *testing.T) {
	ll, err := lossless.New(lossless.NameBloscLZ)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := ll.Compress(nil)
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	fw := newFrameWriter(&frame)
	fw.header(LossySZ2, lossless.NameBloscLZ, DefaultThreshold, 0, nil, 0)
	fw.metaSection(empty)
	decoders := map[string]func() error{
		"Decompress": func() error { _, err := Decompress(frame.Bytes()); return err },
		"DecompressFrom": func() error {
			_, err := DecompressFrom(bytes.NewReader(frame.Bytes()), 1)
			return err
		},
		"DecompressEntriesFrom": func() error {
			return DecompressEntriesFrom(bytes.NewReader(frame.Bytes()), 1, func(model.Entry) error { return nil })
		},
	}
	for name, decode := range decoders {
		if err := decode(); !errors.Is(err, ErrCorrupt) || errors.Is(err, io.EOF) {
			t.Errorf("%s: %v, want ErrCorrupt and not io.EOF", name, err)
		}
	}
}

// FuzzDecoderStream drives the streaming frame reader with arbitrary
// bytes: it must return a dict or an error — never panic, never (nil,
// nil) — and the whole-buffer Decompress, which reads the same bytes
// at the full pool width, must accept what it accepts.
func FuzzDecoderStream(f *testing.F) {
	p, err := NewPipeline(Config{Parallelism: 1, Threshold: 64})
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	weights := make([]float32, 300)
	for i := range weights {
		weights[i] = float32(rng.NormFloat64())
	}
	wt, err := tensor.FromData(weights, len(weights))
	if err != nil {
		f.Fatal(err)
	}
	sd := model.NewStateDict()
	for _, e := range []model.Entry{
		{Name: "conv.weight", DType: model.Float32, Tensor: wt},
		{Name: "bn.num_batches_tracked", DType: model.Int64, Ints: []int64{7}},
	} {
		if err := sd.Add(e); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := p.CompressTo(&buf, sd); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(pipelineMagic))
	f.Add(append([]byte(pipelineMagic), formatVersion))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecompressFrom(bytes.NewReader(data), 1)
		if err == nil && got == nil {
			t.Fatal("DecompressFrom returned nil dict with nil error")
		}
		// A stream the serial reader accepts is a frame (plus ignored
		// trailing bytes) the whole-buffer reader accepts too.
		if err == nil {
			if _, bufErr := Decompress(data); bufErr != nil {
				t.Fatalf("stream reader accepted what buffer reader rejects: %v", bufErr)
			}
		}
	})
}

func mustDecompress(t *testing.T, p *Pipeline, sd *model.StateDict) *model.StateDict {
	t.Helper()
	buf, _, err := p.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
