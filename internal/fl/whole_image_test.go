package fl

import (
	"bytes"
	"io"
	"testing"

	"fedsz/internal/adapt"
	"fedsz/internal/core"
	"fedsz/internal/model"
)

// hidden is a codec behind a wrapper that forwards the base interface
// only — what a tracing decorator that knows nothing of InPlaceDecoder
// looks like to the transport.
type hidden struct{ Codec }

// TestWholeImageTravelsWithTheStats: which frames may carry a global
// model is answered by UpdateStats.WholeImage, on both encode paths and
// through a wrapper: a static FedSZ codec on a bounded family says yes; a
// delta (even over that codec), an adaptive pipeline, error feedback and
// a family that honours no bound say no; plain makes no claim.
func TestWholeImageTravelsWithTheStats(t *testing.T) {
	sd := model.BuildStateDict(model.MobileNetV2(32), 1)
	static, err := NewFedSZCodec(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := adapt.NewPolicy(adapt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := NewFedSZCodec(core.Config{Selector: policy})
	if err != nil {
		t.Fatal(err)
	}
	feedback, err := NewFedSZCodec(core.Config{Feedback: core.NewFeedback()})
	if err != nil {
		t.Fatal(err)
	}
	delta := NewDeltaCodec(static)
	delta.SetReference(sd)
	for _, tc := range []struct {
		name  string
		codec Codec
		want  bool
	}{
		{"fedsz-sz2", static, true},
		{"fedsz-sz2 wrapped", hidden{static}, true},
		{"delta+fedsz-sz2", delta, false},
		{"fedsz-adaptive", adaptive, false},
		{"fedsz-sz2 with error feedback", feedback, false},
		{"plain", PlainCodec{}, false},
	} {
		_, st, err := tc.codec.Encode(sd)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		streamed, err := tc.codec.EncodeTo(io.Discard, sd)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.WholeImage != tc.want || streamed.WholeImage != tc.want {
			t.Errorf("%s: WholeImage = %v (Encode) / %v (EncodeTo), want %v", tc.name, st.WholeImage, streamed.WholeImage, tc.want)
		}
	}
	// randk keeps a random subset whatever the bound says. Its default
	// setting cannot encode, so the constructor's answer is read directly.
	randk, err := NewFedSZCodec(core.Config{Lossy: "randk"})
	if err != nil {
		t.Fatal(err)
	}
	if randk.wholeImage {
		t.Error("a codec on an unbounded family claims whole images")
	}
}

// TestDecodeIntoFallsBackBehindAWrapper: DecodeInto decodes in place
// through a codec that can and allocates through one that cannot (or is
// hidden behind a wrapper), with the same values either way.
func TestDecodeIntoFallsBackBehindAWrapper(t *testing.T) {
	sd := model.BuildStateDict(model.MobileNetV2(32), 1)
	codec, err := NewFedSZCodec(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := codec.Encode(sd)
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]Codec{"in place": codec, "wrapped": hidden{codec}} {
		dst := model.BuildStateDict(model.MobileNetV2(32), 2)
		got, err := DecodeInto(c, bytes.NewReader(frame), dst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inPlace := got.At(0).Tensor == dst.At(0).Tensor
		if inPlace != (name == "in place") {
			t.Errorf("%s: decoded into dst's storage = %v", name, inPlace)
		}
		for i := 0; i < want.Len(); i++ {
			w, g := want.At(i), got.At(i)
			if w.Name != g.Name || w.DType != g.DType {
				t.Fatalf("%s: entry %d is %q, want %q", name, i, g.Name, w.Name)
			}
			if w.DType == model.Float32 {
				for j, v := range w.Tensor.Data() {
					if g.Tensor.Data()[j] != v {
						t.Fatalf("%s: %q[%d] = %v, want %v", name, w.Name, j, g.Tensor.Data()[j], v)
					}
				}
			}
		}
	}
}
