package hier

import (
	"bytes"
	"testing"

	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
)

// The float64 partial-sum codec between edge and coordinator on a
// MobileNetV2(1)-shaped region, checksummed as the tier sends it. Run
// with
//
//	go test -run '^$' -bench Partial ./internal/hier

func mobileNetPartial() *orchestrator.Partial {
	p := &orchestrator.Partial{TotalWeight: 4, Updates: 4}
	for _, e := range model.BuildStateDict(model.MobileNetV2(1), 42).Entries() {
		pe := orchestrator.PartialEntry{Name: e.Name, DType: e.DType, Ints: e.Ints}
		if e.DType == model.Float32 {
			pe.Shape = e.Tensor.Shape()
			pe.Sums = make([]float64, e.Tensor.NumElements())
			for i, v := range e.Tensor.Data() {
				pe.Sums[i] = 4 * float64(v)
			}
		}
		p.Entries = append(p.Entries, pe)
	}
	return p
}

func BenchmarkEncodePartialTo(b *testing.B) {
	p := mobileNetPartial()
	opts := WireOptions{Checksum: true}
	var out bytes.Buffer
	if err := EncodePartialTo(&out, p, opts); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := EncodePartialTo(&out, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePartialInto(b *testing.B) {
	frame, err := EncodePartial(mobileNetPartial(), WireOptions{Checksum: true})
	if err != nil {
		b.Fatal(err)
	}
	held := mobileNetPartial()
	r := bytes.NewReader(frame)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if held, err = DecodePartialInto(r, held); err != nil {
			b.Fatal(err)
		}
	}
}
