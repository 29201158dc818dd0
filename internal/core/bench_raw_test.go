package core

import (
	"bytes"
	"testing"

	"fedsz/internal/model"
)

// The raw arm of Eqn. 1 on the benchmark's model: the FSD1 marshal a
// server runs per connection and the in-place unmarshal a leaf runs on
// each downlink. Run with
//
//	go test -run '^$' -bench 'StateDict(To|Into)' ./internal/core

func BenchmarkMarshalStateDictTo(b *testing.B) {
	sd := model.BuildStateDict(model.MobileNetV2(1), 42)
	var out bytes.Buffer
	out.Grow(stateDictWireSize(sd))
	b.SetBytes(int64(stateDictWireSize(sd)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := MarshalStateDictTo(&out, sd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalStateDictInto(b *testing.B) {
	sd := model.BuildStateDict(model.MobileNetV2(1), 42)
	buf, err := MarshalStateDict(sd)
	if err != nil {
		b.Fatal(err)
	}
	held := model.BuildStateDict(model.MobileNetV2(1), 7)
	r := bytes.NewReader(buf)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(buf)
		if held, err = UnmarshalStateDictInto(r, held); err != nil {
			b.Fatal(err)
		}
	}
}
