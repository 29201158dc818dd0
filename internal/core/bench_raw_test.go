package core

import (
	"bytes"
	"math"
	"runtime"
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

// BenchmarkPipelineCompressMobileNet times Pipeline.Compress on the
// benchmark's model at parallelism 1, then fails if the least a call
// allocated in five more calls is over 5 MiB: encoding into a fresh
// buffer grown by doubling took 6-8 MB a call, where the returned
// frame, ~1.2 MB, is all a caller keeps. (The least of five, because a
// worker that moves to another P misses the pooled scratch its last
// call left.) Run with
//
//	go test -run '^$' -bench PipelineCompressMobileNet -benchmem ./internal/core
func BenchmarkPipelineCompressMobileNet(b *testing.B) {
	sd := model.BuildStateDict(model.MobileNetV2(1), 42)
	p, err := NewPipeline(Config{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	compress := func() {
		if _, _, err := p.Compress(sd); err != nil {
			b.Fatal(err)
		}
	}
	compress() // warm the pools
	b.SetBytes(sd.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compress()
	}
	b.StopTimer()
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		compress()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	b.ReportMetric(float64(least), "least-B/call")
	if least > 5<<20 {
		b.Fatalf("Compress allocated at least %d bytes a call, want at most 5 MiB", least)
	}
}
