// Benchmarks over the tensors a flat_lan update compresses, pinning the
// numbers quoted in the README Performance section.
package sz2

import (
	"testing"

	"fedsz/internal/lossy"
	"fedsz/internal/model"
)

// mobileNetTensors returns the lossy-path tensors of model.MobileNetV2(1)
// at seed 42: the weight-named float32 entries over 1000 elements
// (core.DefaultThreshold, the partition of Algorithm 1 line 4).
func mobileNetTensors() (tensors [][]float32, bytes int) {
	sd := model.BuildStateDict(model.MobileNetV2(1), 42)
	for _, e := range sd.Entries() {
		if e.DType == model.Float32 && e.IsWeightNamed() && e.NumElements() > 1000 {
			tensors = append(tensors, e.Tensor.Data())
			bytes += e.SizeBytes()
		}
	}
	return tensors, bytes
}

func BenchmarkCompressMobileNet(b *testing.B) {
	tensors, size := mobileNetTensors()
	c := New()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range tensors {
			if _, err := c.Compress(data, lossy.RelBound(1e-2)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDecompressMobileNet(b *testing.B) {
	tensors, size := mobileNetTensors()
	c := New()
	frames := make([][]byte, len(tensors))
	for i, data := range tensors {
		var err error
		if frames[i], err = c.Compress(data, lossy.RelBound(1e-2)); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]float32, 0, 1<<20)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, buf := range frames {
			var err error
			if dst, err = c.DecompressInto(dst, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}
