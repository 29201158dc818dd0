package fedsz

// Micro-benchmarks of the compression pipeline. The paper's tables and
// figures run through cmd/fedszbench; end-to-end rounds are measured by
// the benchmark/ module.
//
//	go test -bench=. -benchmem

import "testing"

// BenchmarkPipelineCompress measures the end-to-end FedSZ compression
// throughput on a quarter-width MobileNetV2 update; -cpu 1 gives the
// single-worker baseline the parallel engine is measured against.
func BenchmarkPipelineCompress(b *testing.B) {
	b.ReportAllocs()
	sd := BuildStateDict(MobileNetV2(4), 1)
	b.SetBytes(sd.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compress(sd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineDecompress measures the matching decompression
// throughput.
func BenchmarkPipelineDecompress(b *testing.B) {
	b.ReportAllocs()
	sd := BuildStateDict(MobileNetV2(4), 1)
	buf, _, err := Compress(sd)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(sd.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(buf); err != nil {
			b.Fatal(err)
		}
	}
}
