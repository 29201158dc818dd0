package hier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/lossless"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
)

// samplePartial builds a representative regional partial: mixed
// float32/int64 entries, non-trivial sums, a prior blob.
func samplePartial(rng *rand.Rand) *orchestrator.Partial {
	p := &orchestrator.Partial{
		TotalWeight: 1234,
		Updates:     17,
		Prior:       []byte{1, 2, 3, 4, 5},
	}
	shapes := [][]int{{8, 3, 3}, {8}, {16, 13}}
	names := []string{"conv1.weight", "conv1.bias", "fc.weight"}
	for i, name := range names {
		n := 1
		for _, d := range shapes[i] {
			n *= d
		}
		sums := make([]float64, n)
		for j := range sums {
			sums[j] = (rng.Float64()*2 - 1) * 1e4
		}
		p.Entries = append(p.Entries, orchestrator.PartialEntry{
			Name: name, DType: model.Float32, Shape: shapes[i], Sums: sums,
		})
	}
	p.Entries = append(p.Entries, orchestrator.PartialEntry{
		Name: "bn.num_batches_tracked", DType: model.Int64, Ints: []int64{42, -7},
	})
	return p
}

func partialsEqual(t *testing.T, a, b *orchestrator.Partial) {
	t.Helper()
	if a.Updates != b.Updates || math.Float64bits(a.TotalWeight) != math.Float64bits(b.TotalWeight) {
		t.Fatalf("header mismatch: %d/%v vs %d/%v", a.Updates, a.TotalWeight, b.Updates, b.TotalWeight)
	}
	if !bytes.Equal(a.Prior, b.Prior) {
		t.Fatalf("prior mismatch")
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("entry count %d != %d", len(a.Entries), len(b.Entries))
	}
	for i, ea := range a.Entries {
		eb := b.Entries[i]
		if ea.Name != eb.Name || ea.DType != eb.DType {
			t.Fatalf("entry %d identity mismatch", i)
		}
		for j := range ea.Sums {
			if math.Float64bits(ea.Sums[j]) != math.Float64bits(eb.Sums[j]) {
				t.Fatalf("entry %q sum %d: %x != %x", ea.Name, j,
					math.Float64bits(ea.Sums[j]), math.Float64bits(eb.Sums[j]))
			}
		}
		for j := range ea.Ints {
			if ea.Ints[j] != eb.Ints[j] {
				t.Fatalf("entry %q int %d mismatch", ea.Name, j)
			}
		}
	}
}

// TestPartialRoundTrip checks bit-exact encode/decode across every
// frame variant: plain, checksummed, packed, and packed+checksummed
// with each registered lossless codec.
func TestPartialRoundTrip(t *testing.T) {
	p := samplePartial(rand.New(rand.NewSource(3)))
	variants := []WireOptions{
		{},
		{Checksum: true},
	}
	for _, name := range lossless.Names() {
		variants = append(variants,
			WireOptions{Lossless: name},
			WireOptions{Checksum: true, Lossless: name})
	}
	for _, opts := range variants {
		buf, err := EncodePartial(p, opts)
		if err != nil {
			t.Fatalf("%+v: encode: %v", opts, err)
		}
		got, err := DecodePartialFrom(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%+v: decode: %v", opts, err)
		}
		partialsEqual(t, p, got)
	}
}

// TestPartialEmptyRegion: an Updates==0 partial (idle region) must
// survive the wire — it is the upstream's round-drop signal.
func TestPartialEmptyRegion(t *testing.T) {
	p := &orchestrator.Partial{}
	buf, err := EncodePartial(p, WireOptions{Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePartialFrom(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Updates != 0 || got.TotalWeight != 0 || len(got.Entries) != 0 {
		t.Fatalf("empty partial decoded as %+v", got)
	}
}

// TestPartialChecksumDetectsCorruption flips every byte of a
// checksummed frame in turn: each corruption must be rejected with an
// error the transport classifies as DropCorrupt (wrapping
// core.ErrCorrupt), and never silently decode.
func TestPartialChecksumDetectsCorruption(t *testing.T) {
	p := samplePartial(rand.New(rand.NewSource(5)))
	buf, err := EncodePartial(p, WireOptions{Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := DecodePartialFrom(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	// Stride through the frame (every byte on small frames would be
	// slow for nothing; 7 is coprime with typical field sizes).
	for pos := 0; pos < len(buf); pos += 7 {
		mut := append([]byte(nil), buf...)
		mut[pos] ^= 0x41
		got, err := DecodePartialFrom(bytes.NewReader(mut))
		if err == nil {
			// A flip confined to the CRC-covered body must be caught; a
			// flip elsewhere (flags/length) may legitimately error
			// differently but can never produce a VALID decode of
			// different content.
			partialsEqual(t, orig, got)
			t.Fatalf("corruption at byte %d decoded successfully to identical content — flip had no effect?", pos)
		}
	}
	// Body corruption specifically must classify as core.ErrCorrupt.
	mut := append([]byte(nil), buf...)
	mut[len(mut)/2] ^= 0x41
	if _, err := DecodePartialFrom(bytes.NewReader(mut)); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("body corruption error %v does not wrap core.ErrCorrupt", err)
	}
}

// TestPartialTruncation: every prefix of a valid frame must fail
// cleanly, never panic or succeed.
func TestPartialTruncation(t *testing.T) {
	p := samplePartial(rand.New(rand.NewSource(7)))
	for _, opts := range []WireOptions{{}, {Checksum: true}, {Checksum: true, Lossless: lossless.NameZlib}} {
		buf, err := EncodePartial(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut += 11 {
			if _, err := DecodePartialFrom(bytes.NewReader(buf[:cut])); err == nil {
				t.Fatalf("%+v: truncation at %d/%d decoded successfully", opts, cut, len(buf))
			}
		}
	}
}

// TestPartialUnknownFlags: frames with flag bits this version does not
// understand are rejected up front.
func TestPartialUnknownFlags(t *testing.T) {
	p := samplePartial(rand.New(rand.NewSource(9)))
	buf, err := EncodePartial(p, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	buf[0] |= 1 << 5
	if _, err := DecodePartialFrom(bytes.NewReader(buf)); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("unknown flags error %v does not wrap core.ErrCorrupt", err)
	}
}

// TestPackedBombRejected: a packed frame whose small compressed body
// unpacks past the partial-size limit is a decompression bomb, not a
// partial — it must be rejected before parsing, with the limit
// applying to the logical body and not just the wire bytes, and it must
// be rejected while unpacking: whatever codec the frame names, what the
// decode allocates stays near twice the limit, never the bomb's size.
func TestPackedBombRejected(t *testing.T) {
	defer func(old uint64) { maxPartialSize = old }(maxPartialSize)
	const limit = 1 << 20
	maxPartialSize = limit

	// 2M zero sums: a 16 MiB body that packs far below the lowered 1 MiB
	// cap, so only the unpacked-size check can catch it.
	p := &orchestrator.Partial{TotalWeight: 10, Updates: 1}
	p.Entries = []orchestrator.PartialEntry{{
		Name: "w", DType: model.Float32, Shape: []int{1 << 21}, Sums: make([]float64, 1<<21),
	}}
	for _, codec := range []string{lossless.NameZlib, lossless.NameGzip, lossless.NameBloscLZ} {
		buf, err := EncodePartial(p, WireOptions{Lossless: codec})
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(buf)) > maxPartialSize {
			t.Fatalf("%s: packed frame %d B does not fit under the lowered cap; bomb not representative", codec, len(buf))
		}
		got := allocated(func() { _, err = DecodePartialFrom(bytes.NewReader(buf)) })
		if !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("%s: oversized unpack error %v does not wrap core.ErrCorrupt", codec, err)
		}
		// Twice the cap for the capped output, plus the inflater's own
		// window and tables.
		if budget := uint64(2*limit + 256<<10); got > budget {
			t.Fatalf("%s: a bomb of %d B allocated %d B before it was rejected, want <= %d", codec, 8*len(p.Entries[0].Sums), got, budget)
		}
	}
}

// TestPackedSmaller: lossless packing should shrink the (highly
// redundant) float64 sum frames — the point of paying for it on the
// WAN hop.
func TestPackedSmaller(t *testing.T) {
	// Regional sums from a real aggregator have correlated magnitudes;
	// emulate with smooth values rather than white noise.
	p := &orchestrator.Partial{TotalWeight: 100, Updates: 4}
	sums := make([]float64, 4096)
	for i := range sums {
		sums[i] = math.Sin(float64(i)/50) * 100
	}
	p.Entries = []orchestrator.PartialEntry{{Name: "w", DType: model.Float32, Shape: []int{4096}, Sums: sums}}
	raw, err := EncodePartial(p, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := EncodePartial(p, WireOptions{Lossless: lossless.NameZlib})
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(raw) {
		t.Fatalf("packed frame %d B >= raw %d B", len(packed), len(raw))
	}
	got, err := DecodePartialFrom(bytes.NewReader(packed))
	if err != nil {
		t.Fatal(err)
	}
	partialsEqual(t, p, got)
}

// TestPartialSpanTail: the optional span-summary tail rides after the
// prior, round-trips byte-exact, and its absence decodes as nil — the
// two directions of mixed-version tolerance.
func TestPartialSpanTail(t *testing.T) {
	p := samplePartial(rand.New(rand.NewSource(9)))
	p.Span = []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
	for _, opts := range []WireOptions{{}, {Checksum: true}} {
		buf, err := EncodePartial(p, opts)
		if err != nil {
			t.Fatalf("%+v: encode: %v", opts, err)
		}
		got, err := DecodePartialFrom(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%+v: decode: %v", opts, err)
		}
		partialsEqual(t, p, got)
		if !bytes.Equal(got.Span, p.Span) {
			t.Fatalf("%+v: span tail %x != %x", opts, got.Span, p.Span)
		}
	}
}

// rawBody strips a raw, unchecksummed frame down to its body.
func rawBody(t *testing.T, frame []byte) []byte {
	t.Helper()
	size, n := binary.Uvarint(frame[1:])
	if frame[0] != 0 || n <= 0 || uint64(len(frame)-1-n) != size {
		t.Fatalf("not a raw unchecksummed frame (flags %#x)", frame[0])
	}
	return frame[1+n:]
}

// rawFrame wraps body as a raw, unchecksummed frame.
func rawFrame(body []byte) []byte {
	out := binary.AppendUvarint([]byte{0}, uint64(len(body)))
	return append(out, body...)
}

// TestPartialWithoutSpanTailDecodes: a frame from a pre-tracing
// encoder (body ends at the prior) must decode with Span == nil, and
// an untraced partial must encode without any tail bytes at all —
// byte-identical to the old wire format.
func TestPartialWithoutSpanTailDecodes(t *testing.T) {
	p := samplePartial(rand.New(rand.NewSource(11)))
	withNil, err := EncodePartial(p, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Span = []byte{}
	withEmpty, err := EncodePartial(p, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withNil, withEmpty) {
		t.Fatal("empty span changed the encoding")
	}
	if body := rawBody(t, withNil); !bytes.HasSuffix(body, p.Prior) {
		t.Fatal("untraced body does not end at the prior")
	}
	got, err := DecodePartialFrom(bytes.NewReader(withNil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Span != nil {
		t.Fatalf("span = %x, want nil", got.Span)
	}
}

// TestPartialSpanTailTruncated: a tail whose declared length overruns
// the body is corruption, not tolerance.
func TestPartialSpanTailTruncated(t *testing.T) {
	p := samplePartial(rand.New(rand.NewSource(13)))
	p.Span = []byte{1, 2, 3, 4, 5, 6, 7, 8}
	frame, err := EncodePartial(p, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body := rawBody(t, frame)
	body = body[:len(body)-4] // cut into the span blob
	if _, err := DecodePartialFrom(bytes.NewReader(rawFrame(body))); !errors.Is(err, ErrCorruptPartial) {
		t.Fatalf("truncated span tail: err = %v, want ErrCorruptPartial", err)
	}
}

// TestPartialUnknownTailIgnored: body bytes past the span tail belong
// to a newer encoder; they are covered by the checksum and otherwise
// ignored.
func TestPartialUnknownTailIgnored(t *testing.T) {
	p := samplePartial(rand.New(rand.NewSource(15)))
	p.Span = []byte{9, 9}
	frame, err := EncodePartial(p, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	extended := rawFrame(append(append([]byte(nil), rawBody(t, frame)...), 0xaa, 0xbb, 0xcc))
	got, err := DecodePartialFrom(bytes.NewReader(extended))
	if err != nil {
		t.Fatalf("unknown tail: %v", err)
	}
	partialsEqual(t, p, got)
}
