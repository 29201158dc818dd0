// Benchmarks over the tensors a flat_lan update compresses, pinning the
// numbers quoted in the README Performance section.
package sz2

import (
	"slices"
	"testing"

	"fedsz/internal/huffman"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/quant"
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

// stageSink keeps the fit stage's selections live.
var stageSink int

// BenchmarkCompressStages times each stage of Compress on its own over
// the same tensors, each sub-benchmark with the whole set's SetBytes, so
// their ns/op add up to about BenchmarkCompressMobileNet's:
//
//   - fit: widen, fit and select as predict does (widen and pick): four
//     full blocks per fitBlocksAVX2 call where the AVX2 path runs, each
//     picked by the bound or, where it cannot decide, by the serial
//     Lorenzo sum; otherwise fitLine and regressionWins per block. Each
//     block's reconstruction-before comes from a full pass's decode;
//   - coefficients: code each regression block's fitted pair against
//     its chain, then the coefficient codes' Huffman stream;
//   - quantize: the per-mode kernels, from pre-widened blocks, with the
//     modes and dequantized coefficients a full pass chose;
//   - entropy: huffman.AppendEncodeAlphabet over the codes, the
//     histogram and table build plus the body (huffman's
//     BenchmarkEncodeAlphabetStages splits the two);
//   - wrap: the LZH stage over the assembled payload.
func BenchmarkCompressStages(b *testing.B) {
	tensors, size := mobileNetTensors()
	c := New()
	type staged struct {
		data    []float32
		wide    []float64
		prev    []float64 // per block, the reconstruction before it
		fits    []float64 // each regression block's fitted pair
		coeffs  []float64 // and its dequantized pair
		eb      float64
		sc      *compScratch
		payload []byte
	}
	st := make([]staged, len(tensors))
	for i, data := range tensors {
		eb, err := lossy.RelBound(1e-2).Resolve(data)
		if err != nil {
			b.Fatal(err)
		}
		sc := new(compScratch)
		c.predict(sc, data, eb)
		payload, err := sc.appendPayload()
		if err != nil {
			b.Fatal(err)
		}
		frame, err := c.frame(payload, len(data), eb)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := c.Decompress(frame)
		if err != nil {
			b.Fatal(err)
		}
		s := staged{data: data, eb: eb, sc: sc, coeffs: dequantized(sc, eb), payload: slices.Clone(payload)}
		for _, v := range data {
			s.wide = append(s.wide, float64(v))
		}
		for lo := 0; lo < len(data); lo += BlockSize {
			p := 0.0
			if lo > 0 {
				p = float64(dec[lo-1]) // the decoder holds what the encoder did
			}
			s.prev = append(s.prev, p)
			if sc.modes[lo/BlockSize] == predRegress {
				a0, a1, _ := fitLine(s.wide[lo:min(lo+BlockSize, len(data))], p)
				s.fits = append(s.fits, a0, a1)
			}
		}
		st[i] = s
	}
	run := func(name string, f func(s *staged)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range st {
					f(&st[j])
				}
			}
		})
	}
	fit := new(compScratch)
	run("fit", func(s *staged) {
		for b := 0; b < len(s.prev); {
			lo := b * BlockSize
			n := c.widen(fit, s.data, lo)
			for j := range n {
				view := fit.view[j*BlockSize : j*BlockSize+min(BlockSize, len(s.data)-lo-j*BlockSize)]
				if regress, _, _ := c.pick(fit, n, j, view, s.prev[b+j]); regress {
					stageSink++
				}
			}
			b += n
		}
	})
	var coefs compScratch
	run("coefficients", func(s *staged) {
		coefs.coefCodes, coefs.verbatim = coefs.coefCodes[:0], coefs.verbatim[:0]
		chain := newCoefChain(s.eb)
		for i := 0; i < len(s.fits); i += 2 {
			coefs.codeCoef(&chain, 0, s.fits[i])
			coefs.codeCoef(&chain, 1, s.fits[i+1])
		}
		var err error
		if coefs.coefs, err = huffman.AppendEncodeAlphabet(coefs.coefs[:0], coefs.coefCodes, 2*coefRadius+2); err != nil {
			b.Fatal(err)
		}
	})
	codes := make([]int32, BlockSize)
	k := kernel{radius: quant.DefaultRadius}
	run("quantize", func(s *staged) {
		k.eb, k.step, k.tol = s.eb, 2*s.eb, s.eb*(1+1e-9)
		k.outliers = k.outliers[:0]
		ci := 0
		for blk, p := range s.prev {
			lo, hi := blk*BlockSize, min((blk+1)*BlockSize, len(s.data))
			if s.sc.modes[blk] == predRegress {
				a0, a1 := s.coeffs[ci], s.coeffs[ci+1]
				ci += 2
				k.regress(codes, s.data[lo:hi], s.wide[lo:hi], a0, a1)
			} else {
				k.lorenzo(codes, s.data[lo:hi], s.wide[lo:hi], p)
			}
		}
	})
	var dst []byte
	run("entropy", func(s *staged) {
		var err error
		if dst, err = huffman.AppendEncodeAlphabet(dst[:0], s.sc.codes, 2*quant.DefaultRadius+2); err != nil {
			b.Fatal(err)
		}
	})
	run("wrap", func(s *staged) {
		var err error
		if dst, err = c.backend.AppendCompress(dst[:0], s.payload); err != nil {
			b.Fatal(err)
		}
	})
}
