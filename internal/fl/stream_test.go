package fl

import (
	"bytes"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/nn"
)

// encode runs c.EncodeTo into memory, returning the update's bytes.
func encode(c Codec, sd *model.StateDict) ([]byte, UpdateStats, error) {
	var buf bytes.Buffer
	st, err := c.EncodeTo(&buf, sd)
	return buf.Bytes(), st, err
}

// TestCodecStreamingParity pins the Codec contract: EncodeTo reports
// the bytes it wrote, and DecodeFrom consumes exactly one update, so
// updates and other protocol traffic may follow each other on one
// stream — for every codec in the suite.
func TestCodecStreamingParity(t *testing.T) {
	sd := nn.MobileNetV2Mini(48, 4, 3).StateDict()

	fedsz, err := NewFedSZCodec(core.Config{Bound: lossy.RelBound(1e-2)})
	if err != nil {
		t.Fatal(err)
	}

	for _, codec := range []Codec{PlainCodec{}, fedsz} {
		update, st, err := encode(codec, sd)
		if err != nil {
			t.Fatalf("%s: encode: %v", codec.Name(), err)
		}
		if st.CompressedBytes != int64(len(update)) {
			t.Fatalf("%s: CompressedBytes %d, wrote %d", codec.Name(), st.CompressedBytes, len(update))
		}
		var stream bytes.Buffer
		stream.Write(update)
		stream.Write(update)
		stream.WriteByte(0x7F)
		r := bytes.NewReader(stream.Bytes())
		var first *model.StateDict
		for k := 0; k < 2; k++ {
			got, err := codec.DecodeFrom(r)
			if err != nil {
				t.Fatalf("%s: update %d: decodeFrom: %v", codec.Name(), k, err)
			}
			if k == 0 {
				first = got
				continue
			}
			if got.Len() != first.Len() {
				t.Fatalf("%s: the two updates disagree on entry count", codec.Name())
			}
			for i, a := range first.Entries() {
				b := got.At(i)
				if a.Name != b.Name || a.DType != b.DType {
					t.Fatalf("%s: entry %d structure mismatch", codec.Name(), i)
				}
				if a.DType != model.Float32 {
					continue
				}
				ad, bd := a.Tensor.Data(), b.Tensor.Data()
				for j := range ad {
					if ad[j] != bd[j] {
						t.Fatalf("%s: entry %q[%d]: %v != %v", codec.Name(), a.Name, j, ad[j], bd[j])
					}
				}
			}
		}
		if b, err := r.ReadByte(); err != nil || b != 0x7F {
			t.Fatalf("%s: trailing byte consumed: %v %v", codec.Name(), b, err)
		}
	}
}
