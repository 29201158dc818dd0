// Package zfp implements a transform-based lossy compressor modelled on
// ZFP (Lindstrom, IEEE TVCG 2014) in fixed-precision mode, specialized
// to 1-D float32 streams.
//
// Each block of 4 values is (1) aligned to a common exponent and
// converted to two's-complement fixed point, (2) decorrelated with
// ZFP's integer lifting transform, (3) mapped to negabinary so that
// magnitude ordering matches bit-plane ordering, and (4) coded with
// ZFP's embedded group-tested bit-plane coder, keeping `precision`
// planes per block.
//
// Fixed-precision mode does not guarantee an error bound; the paper
// uses it as the "closest analogous option" to SZ's relative mode
// (§V-D1). This implementation derives the retained precision from the
// requested bound with a safety margin, and its conformance suite runs
// with a documented slack factor.
package zfp

import (
	"fmt"
	"math"

	"fedsz/internal/bitstream"
	"fedsz/internal/lossy"
)

const (
	magic = "ZFP\x01"

	// blockSize is ZFP's 1-D block length.
	blockSize = 4

	// intprec is the fixed-point width in bits.
	intprec = 32

	// precisionMargin is added to the analytically required number of
	// bit planes to absorb transform gain and lifting truncation.
	precisionMargin = 3
)

func init() {
	lossy.MustRegisterFamily(lossy.Family{Name: "zfp", Bounded: true, New: func() lossy.Compressor { return New() }})
}

// Compressor is the ZFP codec.
type Compressor struct{}

var _ lossy.Compressor = (*Compressor)(nil)

// New returns a ZFP compressor (fixed-precision mode).
func New() *Compressor { return &Compressor{} }

// Name implements lossy.Compressor.
func (c *Compressor) Name() string { return "zfp" }

// Precision maps an absolute error bound to the number of retained bit
// planes for data whose largest magnitude has the given base-2
// exponent (paper §V-D1: precision = f(error bound)).
func Precision(absBound float64, maxExp int) int {
	if absBound <= 0 {
		return intprec
	}
	p := maxExp - int(math.Floor(math.Log2(absBound))) + precisionMargin
	if p < 2 {
		p = 2
	}
	if p > intprec {
		p = intprec
	}
	return p
}

// Compress implements lossy.Compressor.
func (c *Compressor) Compress(data []float32, p lossy.Params) ([]byte, error) {
	eb, err := p.Resolve(data)
	if err != nil {
		return nil, fmt.Errorf("zfp: %w", err)
	}
	out := lossy.WriteHeader(magic, len(data), eb)
	if len(data) == 0 {
		return out, nil
	}
	maxExp := -149
	for _, v := range data {
		if v == 0 || math.IsNaN(float64(v)) {
			continue
		}
		_, e := math.Frexp(math.Abs(float64(v)))
		if e > maxExp {
			maxExp = e
		}
	}
	prec := Precision(eb, maxExp)
	out = append(out, byte(prec))

	w := bitstream.NewWriter(len(data) * prec / 8)
	var block [blockSize]float32
	for lo := 0; lo < len(data); lo += blockSize {
		n := copy(block[:], data[lo:])
		for i := n; i < blockSize; i++ {
			block[i] = 0 // zero padding for the tail block
		}
		encodeBlock(w, &block, prec)
	}
	return append(out, w.Bytes()...), nil
}

// Decompress implements lossy.Compressor.
func (c *Compressor) Decompress(buf []byte) ([]float32, error) {
	count, _, rest, err := lossy.ReadHeader(magic, buf)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	if len(rest) < 1 {
		return nil, fmt.Errorf("%w: zfp missing precision", lossy.ErrCorrupt)
	}
	prec := int(rest[0])
	if prec < 1 || prec > intprec {
		return nil, fmt.Errorf("%w: zfp precision %d", lossy.ErrCorrupt, prec)
	}
	// Every encoded block consumes at least one bit, so a count whose
	// block total exceeds the payload's bit length is corrupt — checked
	// before the output allocation.
	if (count+blockSize-1)/blockSize > (len(rest)-1)*8 {
		return nil, fmt.Errorf("%w: zfp count %d exceeds payload", lossy.ErrCorrupt, count)
	}
	r := bitstream.NewReader(rest[1:])
	out := make([]float32, count)
	var block [blockSize]float32
	for lo := 0; lo < count; lo += blockSize {
		if err := decodeBlock(r, &block, prec); err != nil {
			return nil, fmt.Errorf("%w: zfp block at %d: %v", lossy.ErrCorrupt, lo, err)
		}
		copy(out[lo:], block[:])
	}
	return out, nil
}

// encodeBlock writes one 4-value block: an emptiness bit, then (for
// non-zero blocks) a 9-bit biased exponent and the embedded-coded
// coefficients.
func encodeBlock(w *bitstream.Writer, block *[blockSize]float32, prec int) {
	maxAbs := 0.0
	for _, v := range block {
		a := math.Abs(float64(v))
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) {
		// All-zero (or unencodable) block.
		w.WriteBit(0)
		return
	}
	w.WriteBit(1)
	_, e := math.Frexp(maxAbs)
	w.WriteBits(uint64(e+256), 9)

	// Common-exponent fixed point with 2 bits of transform headroom.
	scale := math.Ldexp(1, intprec-2-e)
	var q [blockSize]int32
	for i, v := range block {
		q[i] = int32(float64(v) * scale)
	}
	fwdLift(&q)
	var u [blockSize]uint32
	for i, v := range q {
		u[i] = int2uint(v)
	}
	encodeInts(w, &u, prec)
}

// decodeBlock reverses encodeBlock.
func decodeBlock(r *bitstream.Reader, block *[blockSize]float32, prec int) error {
	bit, err := r.ReadBit()
	if err != nil {
		return err
	}
	if bit == 0 {
		for i := range block {
			block[i] = 0
		}
		return nil
	}
	eBits, err := r.ReadBits(9)
	if err != nil {
		return err
	}
	e := int(eBits) - 256
	var u [blockSize]uint32
	if err := decodeInts(r, &u, prec); err != nil {
		return err
	}
	var q [blockSize]int32
	for i, v := range u {
		q[i] = uint2int(v)
	}
	invLift(&q)
	scale := math.Ldexp(1, e-(intprec-2))
	for i, v := range q {
		block[i] = float32(float64(v) * scale)
	}
	return nil
}

// fwdLift is ZFP's forward decorrelating transform for 4-point blocks:
// a non-orthogonal integer approximation of
//
//	       ( 4  4  4  4) (x)
//	1/16 * ( 5  1 -1 -5) (y)
//	       (-4  4  4 -4) (z)
//	       (-2  6 -6  2) (w)
func fwdLift(p *[blockSize]int32) {
	x, y, z, w := p[0], p[1], p[2], p[3]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[0], p[1], p[2], p[3] = x, y, z, w
}

// invLift inverts fwdLift (up to the least-significant bits the forward
// shifts discard).
func invLift(p *[blockSize]int32) {
	x, y, z, w := p[0], p[1], p[2], p[3]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[0], p[1], p[2], p[3] = x, y, z, w
}

// int2uint maps two's complement to negabinary so that magnitude
// ordering matches bit-plane ordering.
func int2uint(x int32) uint32 {
	return (uint32(x) + 0xaaaaaaaa) ^ 0xaaaaaaaa
}

// uint2int reverses int2uint.
func uint2int(x uint32) int32 {
	return int32((x ^ 0xaaaaaaaa) - 0xaaaaaaaa)
}

// encodeInts is ZFP's embedded bit-plane coder for one block: planes
// are emitted MSB-first; within each plane, bits of already-significant
// values are written verbatim and the rest are group-tested with a
// unary escape.
func encodeInts(w *bitstream.Writer, u *[blockSize]uint32, maxprec int) {
	kmin := 0
	if intprec > maxprec {
		kmin = intprec - maxprec
	}
	n := 0
	for k := intprec - 1; k >= kmin; k-- {
		// Gather plane k: bit i of x is bit k of value i.
		var x uint64
		for i := 0; i < blockSize; i++ {
			x += uint64(u[i]>>uint(k)&1) << uint(i)
		}
		// Verbatim bits for the first n values.
		w.WriteBits(x&(1<<uint(n)-1), uint(n))
		x >>= uint(n)
		// Group-test the remainder.
		for i := n; i < blockSize; {
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			for i < blockSize-1 && x&1 == 0 {
				w.WriteBit(0)
				x >>= 1
				i++
			}
			if x&1 == 1 && i < blockSize-1 {
				w.WriteBit(1)
			}
			x >>= 1
			i++
			n = i
		}
	}
}

// decodeInts reverses encodeInts.
func decodeInts(r *bitstream.Reader, u *[blockSize]uint32, maxprec int) error {
	for i := range u {
		u[i] = 0
	}
	kmin := 0
	if intprec > maxprec {
		kmin = intprec - maxprec
	}
	n := 0
	for k := intprec - 1; k >= kmin; k-- {
		x, err := r.ReadBits(uint(n))
		if err != nil {
			return err
		}
		// Group-tested remainder.
		for i := n; i < blockSize; {
			bit, err := r.ReadBit()
			if err != nil {
				return err
			}
			if bit == 0 {
				break
			}
			// Scan zeros until the next significant value.
			for i < blockSize-1 {
				b, err := r.ReadBit()
				if err != nil {
					return err
				}
				if b == 1 {
					break
				}
				i++
			}
			x |= 1 << uint(i)
			i++
			n = i
		}
		for i := 0; i < blockSize; i++ {
			u[i] |= uint32(x>>uint(i)&1) << uint(k)
		}
	}
	return nil
}
