package fl

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/model"
)

// hidden is a codec behind a wrapper that forwards the base interface
// only — what a tracing decorator that knows nothing of InPlaceDecoder
// looks like to the transport.
type hidden struct{ Codec }

// TestWholeImageTravelsWithTheStats: which frames may carry a global
// model is answered by UpdateStats.WholeImage, also through a wrapper: a
// FedSZ codec on a bounded family says yes; a family that honours no
// bound (szx-artifact's block means, randk's random subset) says no;
// plain makes no claim.
func TestWholeImageTravelsWithTheStats(t *testing.T) {
	sd := model.BuildStateDict(model.MobileNetV2(32), 1)
	static, err := NewFedSZCodec(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := NewFedSZCodec(core.Config{Lossy: core.LossySZxArtifact})
	if err != nil {
		t.Fatal(err)
	}
	randk, err := NewFedSZCodec(core.Config{Lossy: "randk"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		codec Codec
		want  bool
	}{
		{"fedsz-sz2", static, true},
		{"fedsz-sz2 wrapped", hidden{static}, true},
		{"fedsz-szx-artifact", artifact, false},
		{"fedsz-randk", randk, false},
		{"plain", PlainCodec{}, false},
	} {
		st, err := tc.codec.EncodeTo(io.Discard, sd)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.WholeImage != tc.want {
			t.Errorf("%s: WholeImage = %v, want %v", tc.name, st.WholeImage, tc.want)
		}
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
	frame, _, err := encode(codec, sd)
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.DecodeFrom(bytes.NewReader(frame))
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

// TestDecodeEntriesIntoLandsPlainOnly: DecodeEntriesInto streams a plain
// update into the dict the receiver holds and hands that dict back, while
// FedSZ and any codec behind a wrapper stream from the same bytes as
// DecodeEntries does and offer no dict. The entries emitted carry the
// same values every way.
func TestDecodeEntriesIntoLandsPlainOnly(t *testing.T) {
	sd := model.BuildStateDict(model.MobileNetV2(32), 1)
	fedsz, err := NewFedSZCodec(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]Codec{"plain": PlainCodec{}, "plain wrapped": hidden{PlainCodec{}}, "fedsz": fedsz} {
		frame, _, err := encode(c, sd)
		if err != nil {
			t.Fatal(err)
		}
		// FedSZ emits from concurrent decode workers.
		var mu sync.Mutex
		want := map[string][]float32{}
		err = DecodeEntries(c, bytes.NewReader(frame), func(e model.Entry) error {
			if e.DType == model.Float32 {
				mu.Lock()
				want[e.Name] = append([]float32(nil), e.Tensor.Data()...)
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dst := model.BuildStateDict(model.MobileNetV2(32), 2)
		landed := true
		held, err := DecodeEntriesInto(c, bytes.NewReader(frame), dst, func(e model.Entry) error {
			if e.DType != model.Float32 {
				return nil
			}
			d, _ := dst.Get(e.Name)
			mu.Lock()
			defer mu.Unlock()
			landed = landed && e.Tensor == d.Tensor && e.Redo == nil
			for j, v := range want[e.Name] {
				if e.Tensor.Data()[j] != v {
					return fmt.Errorf("%q[%d] = %v, want %v", e.Name, j, e.Tensor.Data()[j], v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lands := name == "plain"; landed != lands || (held == dst) != lands || (held == nil) == lands {
			t.Errorf("%s: entries landed in dst %v, dict handed back %p (dst %p)", name, landed, held, dst)
		}
	}
}
