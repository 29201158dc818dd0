package family

import (
	"encoding/binary"
	"fmt"
	"math"

	"fedsz/internal/lossy"
)

// NameQSGD is the registry name of the uniform-quantization family.
const NameQSGD = "qsgd"

const qsgdMagic = "FQG1"

// qsgdRawMode marks a payload whose values are stored verbatim: the
// escape hatch when quantization cannot honour the bound (non-finite
// values, or a bound so tight the derived code width exceeds
// qsgdMaxWidth and raw float32 is cheaper anyway).
const qsgdRawMode = 0xFF

// qsgdMaxWidth caps the per-code bit width. Past 16 bits a code
// stream stops being competitive with raw float32 + lossless, so the
// encoder falls back to raw mode instead.
const qsgdMaxWidth = 16

func init() {
	lossy.MustRegisterFamily(qsgdFamily{})
}

// qsgdFamily is QSGD-style uniform quantization: values map to
// integer levels of a uniform grid over [-maxAbs, maxAbs]. Unlike the
// stochastic original (Alistarh et al. 2017), rounding is
// deterministic nearest-level, so frames are reproducible and the
// worst-case error is half a grid step. The default (zero) setting
// derives the level count from the resolved absolute bound —
// maxAbs/(2L) ≤ ε — making it error bounded; the fixed-width settings
// (4/6/8 bits) trade that guarantee for a known ratio and are meant
// to run with error feedback.
type qsgdFamily struct{}

func (qsgdFamily) Name() string { return NameQSGD }
func (qsgdFamily) Kind() string { return lossy.KindQuant }
func (qsgdFamily) Grid() []lossy.Setting {
	return []lossy.Setting{{}, {Bits: 4}, {Bits: 6}, {Bits: 8}}
}
func (qsgdFamily) Bounded(s lossy.Setting) bool { return s.Bits == 0 }
func (qsgdFamily) Compressor(s lossy.Setting) (lossy.Compressor, error) {
	if s.Fraction != 0 || s.Bits < 0 || s.Bits > qsgdMaxWidth {
		return nil, fmt.Errorf("lossy: qsgd has no setting %v", s)
	}
	return qsgd{bits: s.Bits}, nil
}

// qsgd is one qsgd configuration. bits 0 derives the width from the
// error bound.
type qsgd struct {
	bits int
}

// Name implements lossy.Compressor.
func (qsgd) Name() string { return NameQSGD }

// Compress implements lossy.Compressor.
//
// Payload: width byte (or qsgdRawMode) | maxAbs float64 | uvarint(L)
// | codes, width bits each, little-endian bit order, value (c+L) for
// code c ∈ [-L, L]. Raw mode stores count verbatim float32s instead.
func (q qsgd) Compress(data []float32, p lossy.Params) ([]byte, error) {
	eb, err := p.Resolve(data)
	if err != nil {
		return nil, fmt.Errorf("qsgd: %w", err)
	}
	if len(data) == 0 {
		return lossy.WriteHeader(qsgdMagic, 0, eb), nil
	}
	maxAbs, finite := 0.0, true
	for _, v := range data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			finite = false
			break
		}
		if a := math.Abs(f); a > maxAbs {
			maxAbs = a
		}
	}

	// Level count L and code width. Derived mode: nearest-level
	// rounding errs by at most maxAbs/(2L), so L = ⌈maxAbs/(2ε)⌉
	// honours the bound.
	var levels int64
	width := q.bits
	if finite {
		if width == 0 {
			// Budget for the decoder's float32 store: its rounding adds
			// up to maxAbs·2⁻²⁴, so quantize against a bound shaved by
			// twice that to keep the end-to-end error strictly within ε.
			ebEff := eb - float64(maxAbs*math.Exp2(-23))
			if ebEff <= 0 {
				finite = false // bound below float32 resolution: raw mode
			} else {
				levels = int64(math.Ceil(maxAbs / (2 * ebEff)))
				if levels < 1 {
					levels = 1
				}
				width = bitsFor(2*levels + 1)
				if width > qsgdMaxWidth {
					finite = false // bound too tight for quantization: raw mode
				}
			}
		} else {
			levels = (int64(1)<<uint(width) - 1) / 2
		}
	}

	if !finite {
		out := make([]byte, 0, lossy.MaxHeaderLen+1+len(data)*4)
		out = lossy.AppendHeader(out, qsgdMagic, len(data), eb)
		out = append(out, qsgdRawMode)
		for _, v := range data {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
		return out, nil
	}

	step := 0.0
	if levels > 0 && maxAbs > 0 {
		step = maxAbs / float64(levels)
	}
	out := make([]byte, 0, lossy.MaxHeaderLen+1+8+binary.MaxVarintLen64+(len(data)*width+7)/8)
	out = lossy.AppendHeader(out, qsgdMagic, len(data), eb)
	out = append(out, byte(width))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(maxAbs))
	out = binary.AppendUvarint(out, uint64(levels))

	var acc uint64
	var nbits uint
	for _, v := range data {
		c := int64(0)
		if step > 0 {
			c = int64(math.Round(float64(v) / step))
		}
		if c > levels {
			c = levels
		}
		if c < -levels {
			c = -levels
		}
		acc |= uint64(c+levels) << nbits
		nbits += uint(width)
		for nbits >= 8 {
			out = append(out, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		out = append(out, byte(acc))
	}
	return out, nil
}

// Decompress implements lossy.Compressor.
func (qsgd) Decompress(buf []byte) ([]float32, error) {
	count, _, rest, err := lossy.ReadHeader(qsgdMagic, buf)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	if count > maxElems {
		return nil, fmt.Errorf("%w: qsgd element count %d", lossy.ErrCorrupt, count)
	}
	if len(rest) < 1 {
		return nil, fmt.Errorf("%w: qsgd missing mode byte", lossy.ErrCorrupt)
	}
	mode := rest[0]
	rest = rest[1:]

	if mode == qsgdRawMode {
		if len(rest) != count*4 {
			return nil, fmt.Errorf("%w: qsgd raw payload size", lossy.ErrCorrupt)
		}
		out := make([]float32, count)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[i*4:]))
		}
		return out, nil
	}

	width := int(mode)
	if width < 1 || width > qsgdMaxWidth {
		return nil, fmt.Errorf("%w: qsgd code width %d", lossy.ErrCorrupt, width)
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("%w: qsgd scale underrun", lossy.ErrCorrupt)
	}
	maxAbs := math.Float64frombits(binary.LittleEndian.Uint64(rest))
	if math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) || maxAbs < 0 {
		return nil, fmt.Errorf("%w: qsgd scale %v", lossy.ErrCorrupt, maxAbs)
	}
	rest = rest[8:]
	l64, n := binary.Uvarint(rest)
	if n <= 0 || l64 > (uint64(1)<<uint(width)-1)/2 {
		return nil, fmt.Errorf("%w: qsgd level count", lossy.ErrCorrupt)
	}
	rest = rest[n:]
	levels := int64(l64)
	if need := (count*width + 7) / 8; len(rest) != need {
		return nil, fmt.Errorf("%w: qsgd code stream size", lossy.ErrCorrupt)
	}

	step := 0.0
	if levels > 0 {
		step = maxAbs / float64(levels)
	}
	out := make([]float32, count)
	var acc uint64
	var nbits uint
	at := 0
	mask := uint64(1)<<uint(width) - 1
	for i := range out {
		for nbits < uint(width) {
			acc |= uint64(rest[at]) << nbits
			at++
			nbits += 8
		}
		u := acc & mask
		acc >>= uint(width)
		nbits -= uint(width)
		if u > uint64(2*levels) {
			return nil, fmt.Errorf("%w: qsgd code %d out of range", lossy.ErrCorrupt, u)
		}
		out[i] = float32(float64(int64(u)-levels) * step)
	}
	return out, nil
}

// bitsFor returns the bit width needed to store values in [0, n).
func bitsFor(n int64) int {
	w := 0
	for v := n - 1; v > 0; v >>= 1 {
		w++
	}
	if w == 0 {
		w = 1
	}
	return w
}
